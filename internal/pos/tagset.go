// Package pos implements a Penn Treebank part-of-speech tagger.
//
// The paper used the Ratnaparkhi maximum-entropy tagger; that model and
// its training data are unavailable, so this package provides an
// equivalent-contract substitute: a deterministic tagger built from
//
//  1. closed-class word lists (determiners, prepositions, pronouns, ...),
//  2. an embedded open-class lexicon of common English words,
//  3. morphological suffix rules for unknown words, and
//  4. Brill-style contextual repair rules.
//
// Downstream consumers (the chunker, the bBNP feature extractor and the
// sentiment analyzer) depend only on Penn Treebank tags such as NN, JJ,
// VB and DT, which this tagger emits.
package pos

// Tag is a Penn Treebank part-of-speech tag, held in one byte so that
// every tag test in the tagger, the chunker and the analyzer is an
// integer compare. The zero Tag is the untagged value: it renders as ""
// and, as a lexicon entry's POS, matches any tag.
type Tag uint8

// The subset of the Penn Treebank tagset produced by this tagger.
const (
	CC   Tag = iota + 1 // coordinating conjunction
	CD                  // cardinal number
	DT                  // determiner
	EX                  // existential there
	FW                  // foreign word
	IN                  // preposition / subordinating conjunction
	JJ                  // adjective
	JJR                 // adjective, comparative
	JJS                 // adjective, superlative
	MD                  // modal
	NN                  // noun, singular or mass
	NNS                 // noun, plural
	NNP                 // proper noun, singular
	NNPS                // proper noun, plural
	PDT                 // predeterminer
	POS                 // possessive ending
	PRP                 // personal pronoun
	PRPS                // possessive pronoun
	RB                  // adverb
	RBR                 // adverb, comparative
	RBS                 // adverb, superlative
	RP                  // particle
	TO                  // to
	UH                  // interjection
	VB                  // verb, base form
	VBD                 // verb, past tense
	VBG                 // verb, gerund/present participle
	VBN                 // verb, past participle
	VBP                 // verb, non-3rd person singular present
	VBZ                 // verb, 3rd person singular present
	WDT                 // wh-determiner
	WP                  // wh-pronoun
	WRB                 // wh-adverb
	SYM                 // symbol
	PCT                 // punctuation (collapsed)

	// unknownTag is what ParseTag returns for a name outside the tagset:
	// no token ever carries it, so a lexicon entry with it matches none.
	unknownTag
)

// tagNames[t] is t's Penn Treebank name.
var tagNames = [...]string{
	0:          "",
	CC:         "CC",
	CD:         "CD",
	DT:         "DT",
	EX:         "EX",
	FW:         "FW",
	IN:         "IN",
	JJ:         "JJ",
	JJR:        "JJR",
	JJS:        "JJS",
	MD:         "MD",
	NN:         "NN",
	NNS:        "NNS",
	NNP:        "NNP",
	NNPS:       "NNPS",
	PDT:        "PDT",
	POS:        "POS",
	PRP:        "PRP",
	PRPS:       "PRP$",
	RB:         "RB",
	RBR:        "RBR",
	RBS:        "RBS",
	RP:         "RP",
	TO:         "TO",
	UH:         "UH",
	VB:         "VB",
	VBD:        "VBD",
	VBG:        "VBG",
	VBN:        "VBN",
	VBP:        "VBP",
	VBZ:        "VBZ",
	WDT:        "WDT",
	WP:         "WP",
	WRB:        "WRB",
	SYM:        "SYM",
	PCT:        ".",
	unknownTag: "?",
}

// String returns the tag's Penn Treebank name ("" for the zero Tag).
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return tagNames[unknownTag]
}

// ParseTag returns the tag whose String is name. A name outside the
// tagset (lower-case "jj" included) yields a tag no token carries, and
// ok is false.
func ParseTag(name string) (t Tag, ok bool) {
	for i, n := range tagNames[:unknownTag] {
		if n == name {
			return Tag(i), true
		}
	}
	return unknownTag, false
}

// IsNoun reports whether the tag is any noun tag (NN, NNS, NNP, NNPS).
func (t Tag) IsNoun() bool { return t == NN || t == NNS || t == NNP || t == NNPS }

// IsProperNoun reports whether the tag is NNP or NNPS.
func (t Tag) IsProperNoun() bool { return t == NNP || t == NNPS }

// IsAdjective reports whether the tag is JJ, JJR or JJS.
func (t Tag) IsAdjective() bool { return t == JJ || t == JJR || t == JJS }

// IsVerb reports whether the tag is any verb tag (VB..VBZ, MD excluded).
func (t Tag) IsVerb() bool {
	switch t {
	case VB, VBD, VBG, VBN, VBP, VBZ:
		return true
	}
	return false
}

// IsAdverb reports whether the tag is RB, RBR or RBS.
func (t Tag) IsAdverb() bool { return t == RB || t == RBR || t == RBS }
