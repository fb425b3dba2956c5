package pos

import (
	"strings"

	"webfountain/internal/tokenize"
)

// TaggedToken pairs a token with its assigned part-of-speech tag.
type TaggedToken struct {
	tokenize.Token
	Tag Tag
}

// Tagger assigns Penn Treebank tags to token streams. The zero value uses
// the embedded lexicon; Extra entries can extend it per instance.
type Tagger struct {
	// Extra maps lower-cased words to tags, consulted before the embedded
	// lexicon. It lets applications pin domain vocabulary.
	Extra map[string]Tag
}

// NewTagger returns a Tagger backed by the embedded lexicon.
func NewTagger() *Tagger { return &Tagger{} }

// Tag tags a full sentence worth of tokens. Tagging is done in two passes:
// a per-token lexical pass followed by contextual repair rules.
func (tg *Tagger) Tag(tokens []tokenize.Token) []TaggedToken {
	return tg.AppendTags(nil, tokens)
}

// AppendTags appends one TaggedToken per token to dst and returns the
// extended slice. Context repair runs over the appended region only, so a
// caller can tag several sentences into one reused buffer.
func (tg *Tagger) AppendTags(dst []TaggedToken, tokens []tokenize.Token) []TaggedToken {
	base := len(dst)
	for _, tok := range tokens {
		dst = append(dst, TaggedToken{Token: tok, Tag: tg.lexical(tok)})
	}
	applyContextRules(dst[base:])
	return dst
}

// foldProbe probes an ASCII-keyed map with the case-folded form of s
// without allocating: the string(buf) conversion in a map index is elided
// by the compiler.
func foldProbe[V any](m map[string]V, s string) (V, bool) {
	if len(s) <= 32 {
		ascii := true
		var buf [32]byte
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 0x80 {
				ascii = false
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if ascii {
			v, ok := m[string(buf[:len(s)])]
			return v, ok
		}
	}
	v, ok := m[strings.ToLower(s)]
	return v, ok
}

// foldEq reports whether s equals lower under ASCII case folding; lower
// must already be lower-case.
func foldEq(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// hasSuffixFold reports whether s ends with lower under ASCII case folding.
func hasSuffixFold(s, lower string) bool {
	return len(s) >= len(lower) && foldEq(s[len(s)-len(lower):], lower)
}

// TagSentence tags the tokens of a tokenize.Sentence.
func (tg *Tagger) TagSentence(s tokenize.Sentence) []TaggedToken {
	return tg.Tag(s.Tokens)
}

// lexEntry is a word's context-free tag in lexTable; be marks the forms
// of "be", which outrank Tagger.Extra.
type lexEntry struct {
	tag Tag
	be  bool
}

// lexTable merges every word list the lexical pass consults — the
// be-forms, the closed classes, the wh-words, the irregular verbs and
// the open-class lexicon — into one map, so a token costs one fold and
// one probe. Lists are added in the order of their precedence, and a
// word held by several keeps the tag of the first.
var lexTable = func() map[string]lexEntry {
	m := make(map[string]lexEntry, len(lexicon)+len(irregularVerbs)+256)
	add := func(w string, t Tag, be bool) {
		if _, ok := m[w]; !ok {
			m[w] = lexEntry{tag: t, be: be}
		}
	}
	for w, t := range beForms {
		add(w, t, true)
	}
	for _, set := range []struct {
		words map[string]bool
		tag   Tag
	}{
		{determiners, DT}, {modals, MD}, {possessivePronouns, PRPS},
		{pronouns, PRP}, {conjunctions, CC}, {prepositions, IN},
	} {
		for w, in := range set.words {
			if in {
				add(w, set.tag, false)
			}
		}
	}
	for _, tags := range []map[string]Tag{whWords, irregularVerbs, lexicon} {
		for w, t := range tags {
			add(w, t, false)
		}
	}
	return m
}()

// lexical assigns the context-free most likely tag for a token. The
// precedence is: the "'s" clitic, the be-forms, Extra, "to" and
// "there", then every other list in lexTable, then morphology.
func (tg *Tagger) lexical(tok tokenize.Token) Tag {
	switch tok.Kind {
	case tokenize.Number:
		return CD
	case tokenize.Punct, tokenize.Symbol:
		return PCT
	}
	w := tok.Text

	// Possessive clitic from the tokenizer ("camera" + "'s"). Verbal "'s"
	// (= is) is repaired contextually when followed by an adjective or
	// determiner; default to POS after nouns, which the context rules use.
	if foldEq(w, "'s") {
		return POS
	}
	// One fold serves both maps; the string(key) conversions in the map
	// indexes do not allocate.
	var buf [64]byte
	key := tokenize.Fold(buf[:0], w)
	e, known := lexTable[string(key)]
	if known && e.be {
		return e.tag
	}
	if tg.Extra != nil {
		if t, ok := tg.Extra[string(key)]; ok {
			return t
		}
	}
	switch {
	case foldEq(w, "to"):
		return TO
	case foldEq(w, "there"):
		return EX // repaired to RB contextually when not followed by be
	case known:
		return e.tag
	}

	// Unknown word: capitalized non-sentence-initial words are proper
	// nouns; sentence-initial capitalized unknowns are too, since known
	// common words were already matched via their lower-case form.
	if tok.IsCapitalized() {
		if strings.HasSuffix(w, "s") && len(w) > 3 && !hasSuffixFold(w, "ss") {
			return NNPS
		}
		return NNP
	}
	return suffixTag(w)
}

// suffixTag guesses a tag for an unknown word from morphology. Suffix
// checks fold ASCII case so the caller need not lower-case first.
func suffixTag(w string) Tag {
	switch {
	case strings.Contains(w, "-"):
		// Unknown hyphenated compounds are overwhelmingly modifiers in
		// review text ("washed-out", "state-of-the-art").
		return JJ
	case hasSuffixFold(w, "ly") && len(w) > 4:
		return RB
	case hasSuffixFold(w, "ing") && len(w) > 5:
		return VBG
	case hasSuffixFold(w, "ed") && len(w) > 4:
		return VBN // repaired to VBD contextually after a nominal subject
	case hasSuffixFold(w, "tion") || hasSuffixFold(w, "sion") ||
		hasSuffixFold(w, "ment") || hasSuffixFold(w, "ness") ||
		hasSuffixFold(w, "ance") || hasSuffixFold(w, "ence") ||
		hasSuffixFold(w, "ship") || hasSuffixFold(w, "ity") ||
		hasSuffixFold(w, "ism") || hasSuffixFold(w, "age") ||
		hasSuffixFold(w, "ure") || hasSuffixFold(w, "cy"):
		return NN
	case hasSuffixFold(w, "ous") || hasSuffixFold(w, "ful") ||
		hasSuffixFold(w, "able") || hasSuffixFold(w, "ible") ||
		hasSuffixFold(w, "ive") || hasSuffixFold(w, "ish") ||
		hasSuffixFold(w, "less") || hasSuffixFold(w, "ic") ||
		hasSuffixFold(w, "al") || hasSuffixFold(w, "ary"):
		return JJ
	case hasSuffixFold(w, "est") && len(w) > 4:
		return JJS
	case hasSuffixFold(w, "er") && len(w) > 4:
		// -er is genuinely ambiguous (agent noun vs. comparative); nouns
		// dominate in product text (reviewer, adapter, charger).
		return NN
	case hasSuffixFold(w, "ies"):
		return NNS
	case hasSuffixFold(w, "s") && !hasSuffixFold(w, "ss") && len(w) > 3:
		return NNS
	}
	return NN
}

// applyContextRules runs Brill-style repair rules over a lexically tagged
// sentence, in order. Each rule inspects neighbouring tags and rewrites
// the current one.
func applyContextRules(ts []TaggedToken) {
	n := len(ts)
	at := func(i int) Tag {
		if i < 0 || i >= n {
			return 0
		}
		return ts[i].Tag
	}
	wordIs := func(i int, lower string) bool {
		return i >= 0 && i < n && foldEq(ts[i].Text, lower)
	}

	for i := 0; i < n; i++ {
		cur := ts[i].Tag
		prev, next := at(i-1), at(i+1)

		switch {
		// "'s" after a noun followed by JJ/DT/VBN reads as "is".
		case cur == POS && (next == JJ || next == JJR || next == JJS || next == DT || next == RB || next == VBG || next == VBN):
			ts[i].Tag = VBZ

		// DT/JJ before a base verb that can be a noun: "the lack", "a break".
		case cur == VB && (prev == DT || prev == JJ || prev == PRPS || prev == POS):
			ts[i].Tag = NN
		case cur == VBZ && (prev == DT || prev == JJ || prev == PRPS || prev == POS):
			// "the takes" is implausible but "the costs" is a plural noun.
			ts[i].Tag = NNS

		// TO or MD before any verb form forces the base form.
		case cur.IsVerb() && (prev == TO || prev == MD):
			ts[i].Tag = VB

		// Do-support: after "do/does/did" plus optional adverbs, the next
		// open-class word is a base-form verb ("does n't respond").
		case (cur == NN || cur == NNS || cur == VBZ || cur == VBD) && followsDoSupport(ts, i):
			ts[i].Tag = VB

		// VBN directly after a nominal or pronoun with no auxiliary before
		// it is a simple past: "The camera impressed everyone."
		case cur == VBN && (prev.IsNoun() || prev == PRP):
			if !hasAuxBefore(ts, i) {
				ts[i].Tag = VBD
			}

		// Conversely, a simple past after a be/have auxiliary is a past
		// participle: "I am impressed", "everyone was disappointed".
		case cur == VBD && hasAuxBefore(ts, i):
			ts[i].Tag = VBN

		// A participle directly after a copular or linking verb with no
		// nominal following is predicative: "seems convoluted", "is
		// breathtaking" — an adjective for chunking purposes. A following
		// "by"/"with" marks a true agent passive ("was enchanted by the
		// view"), which must stay verbal for the PP(by;with) patterns.
		case (cur == VBN || cur == VBG) && isLinkingLike(ts, i-1) &&
			!(next.IsNoun() || next == DT || next == PRPS) &&
			!wordIs(i+1, "by") && !wordIs(i+1, "with"):
			ts[i].Tag = JJ

		// Existential "there" only before forms of be.
		case cur == EX && !(next == VBZ || next == VBP || next == VBD || next == VB || next == MD):
			ts[i].Tag = RB

		// A noun between a determiner and another noun is usually an
		// attributive position where adjectives also sit; keep NN (bBNP
		// patterns accept NN NN), but a verb there becomes a noun:
		// "the zoom control".
		case cur.IsVerb() && prev == DT && next.IsNoun():
			ts[i].Tag = NN

		// Gerund or adjective directly between a determiner and a finite
		// verb is a nominal head: "the setting is", "the manual works",
		// "the coating deteriorated" (the VBN there repairs to VBD next
		// pass).
		case (cur == VBG || cur == JJ) && prev == DT &&
			(next == VBZ || next == VBP || next == VBD || next == VBN || next == MD):
			ts[i].Tag = NN

		// An adjective closing a determiner-rooted modifier chain with no
		// nominal following is itself the head noun: "the old terminal,"
		// — suffix guessing mistook the noun for an adjective.
		case cur == JJ && dtChainBefore(ts, i) &&
			!(next.IsNoun() || next.IsAdjective() || next == CD || next == VBG):
			ts[i].Tag = NN

		// Prepositional "like/unlike" stay IN; verbal "like" after PRP:
		// "I like the camera."
		case cur == IN && wordIs(i, "like") && (prev == PRP || prev == NNS || prev == NNP) && (next == DT || next == PRPS || next == NNP):
			ts[i].Tag = VBP

		// "that" as complementizer after a verb: keep IN; as determiner
		// before a noun: DT (already lexical); as relative pronoun after a
		// noun and before a verb: WDT.
		case cur == DT && wordIs(i, "that") && prev.IsNoun() && (next.IsVerb() || next == MD):
			ts[i].Tag = WDT
		}
	}

	// Second pass: plural noun just before a finite verb position that was
	// mis-guessed as NNS but acts as VBZ: "The colors looks" cannot occur
	// in generated text, so instead repair NN+NNS sequences where the NNS
	// is actually the sentence's verb ("The company reports strong
	// earnings"): NNS followed by JJ+NN with a nominal before it.
	for i := 1; i < n-1; i++ {
		if ts[i].Tag == NNS && at(i-1).IsNoun() && (at(i+1) == JJ || at(i+1) == DT) {
			if vb, ok := foldProbe(pluralAsVerb, ts[i].Text); ok {
				ts[i].Tag = vb
			}
		}
	}
}

// pluralAsVerb lists -s forms that are far more often 3sg verbs than
// plural nouns when they follow a subject.
var pluralAsVerb = map[string]Tag{
	"reports": VBZ, "claims": VBZ, "plans": VBZ, "notes": VBZ,
	"states": VBZ, "estimates": VBZ, "costs": VBZ, "features": VBZ,
	"supports": VBZ, "results": VBZ, "increases": VBZ, "decreases": VBZ,
}

// dtChainBefore reports whether positions before i form an unbroken
// modifier chain (JJ/VBG/CD) rooted at a determiner — i.e. token i closes
// a "the old ..." noun phrase.
func dtChainBefore(ts []TaggedToken, i int) bool {
	for j := i - 1; j >= 0; j-- {
		switch ts[j].Tag {
		case JJ, JJR, JJS, VBG, CD:
			continue
		case DT, PRPS:
			return true
		default:
			return false
		}
	}
	return false
}

// isLinkingLike reports whether the token at position j is a be-form or a
// linking verb ("seem", "look", "feel", "taste", "smell", ...). The tag
// is tested before the lemma, so only verbs are lemmatized.
func isLinkingLike(ts []TaggedToken, j int) bool {
	if j < 0 || j >= len(ts) {
		return false
	}
	if _, ok := foldProbe(beForms, ts[j].Text); ok {
		return true
	}
	return ts[j].Tag.IsVerb() && isLinkingVerb(ts[j].Text)
}

// linkingVerbs are the lemmas isLinkingLike accepts.
var linkingVerbs = []string{
	"seem", "look", "feel", "taste", "smell", "appear", "sound",
	"remain", "stay", "become", "get", "turn", "prove", "grow",
}

// isLinkingVerb reports whether VerbLemma(w) is one of linkingVerbs
// without building the lemma: it is compared in the two parts
// lemmaParts returns, and the lower-cased word lives on the stack.
func isLinkingVerb(w string) bool {
	var buf [32]byte
	stem, suffix := lemmaParts(string(tokenize.Fold(buf[:0], w)))
	for _, v := range linkingVerbs {
		if len(v) == len(stem)+len(suffix) && v[:len(stem)] == stem && v[len(stem):] == suffix {
			return true
		}
	}
	return false
}

// followsDoSupport reports whether position i follows a form of "do" (or a
// modal) with only adverbs in between.
func followsDoSupport(ts []TaggedToken, i int) bool {
	for j := i - 1; j >= 0; j-- {
		switch ts[j].Tag {
		case RB, RBR, RBS:
			continue
		case MD:
			return true
		case VB, VBZ, VBP, VBD:
			w := ts[j].Text
			return foldEq(w, "do") || foldEq(w, "does") || foldEq(w, "did")
		default:
			return false
		}
	}
	return false
}

// hasAuxBefore reports whether an auxiliary (be/have form or modal)
// appears before position i with only adverbs in between.
func hasAuxBefore(ts []TaggedToken, i int) bool {
	for j := i - 1; j >= 0; j-- {
		switch ts[j].Tag {
		case RB, RBR, RBS:
			continue
		case MD, VBZ, VBP, VBD, VB:
			w := ts[j].Text
			if _, isBe := foldProbe(beForms, w); isBe ||
				foldEq(w, "has") || foldEq(w, "have") || foldEq(w, "had") {
				return true
			}
			return false
		default:
			return false
		}
	}
	return false
}
