package pos

import (
	"slices"
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
// caller can tag several sentences into one reused buffer. Each word is
// probed at most once: a token an earlier stage probed keeps its term,
// and a word probed here stores its term back into tokens, so a sentence
// tagged again is not probed again.
func (tg *Tagger) AppendTags(dst []TaggedToken, tokens []tokenize.Token) []TaggedToken {
	base := len(dst)
	dst = slices.Grow(dst, len(tokens))[:base+len(tokens)]
	for i := range tokens {
		tok := &tokens[i]
		if tok.Kind == tokenize.Word {
			tok.TermID()
		}
		d := &dst[base+i]
		d.Token = *tok
		d.Tag = tg.lexical(*tok)
	}
	applyContextRules(dst[base:])
	return dst
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

// Terms the lexical pass and the context rules compare tokens with.
var (
	termPossessive = tokenize.Intern("'s")
	termTo         = tokenize.Intern("to")
	termThere      = tokenize.Intern("there")
	termHas        = tokenize.Intern("has")
	termHave       = tokenize.Intern("have")
	termHad        = tokenize.Intern("had")
	termDo         = tokenize.Intern("do")
	termDoes       = tokenize.Intern("does")
	termDid        = tokenize.Intern("did")
	termBy         = tokenize.Intern("by")
	termWith       = tokenize.Intern("with")
	termLike       = tokenize.Intern("like")
	termThat       = tokenize.Intern("that")
)

// termInfo is what the tagger knows of one vocabulary term.
type termInfo struct {
	tag     Tag    // the context-free tag, when known
	known   bool   // some word list holds the term
	be      bool   // a form of "be", which outranks Tagger.Extra
	linking bool   // the term's lemma is a linking verb (isLinkingVerb)
	plural  Tag    // pluralAsVerb's verb tag, or 0
	lemma   string // VerbLemma of the term
}

// termInfos merges every word list the lexical pass consults — the
// be-forms, the closed classes, the wh-words, the irregular verbs and
// the open-class lexicon — into one table indexed by term, so a token
// costs at most one probe. Lists are added in the order of their
// precedence, and a word held by several keeps the tag of the first.
// Every term interned before the table is built gets its lemma and
// linking bit; a term interned later has no entry (infoOf). The words
// are interned first, so the table is allocated once at its final size.
var termInfos = func() []termInfo {
	closed := []struct {
		words []string
		tag   Tag
	}{
		{determiners, DT}, {modals, MD}, {possessivePronouns, PRPS},
		{pronouns, PRP}, {conjunctions, CC}, {prepositions, IN},
	}
	tagged := [][]wordTag{whWords, irregularVerbs, lexicon}
	for _, set := range closed {
		for _, w := range set.words {
			tokenize.Intern(w)
		}
	}
	for _, list := range append(tagged, beForms, pluralAsVerb) {
		for _, wt := range list {
			tokenize.Intern(wt.word)
		}
	}

	t := make([]termInfo, tokenize.VocabSize())
	add := func(w string, tag Tag, be bool) {
		if e := &t[tokenize.Probe(w)]; !e.known {
			e.tag, e.known, e.be = tag, true, be
		}
	}
	for _, wt := range beForms {
		add(wt.word, wt.tag, true)
	}
	for _, set := range closed {
		for _, w := range set.words {
			add(w, set.tag, false)
		}
	}
	for _, list := range tagged {
		for _, wt := range list {
			add(wt.word, wt.tag, false)
		}
	}
	for _, wt := range pluralAsVerb {
		t[tokenize.Probe(wt.word)].plural = wt.tag
	}
	for id := range t {
		if w := tokenize.TermWord(uint32(id)); w != "" {
			stem, suffix := lemmaParts(w)
			t[id].linking = isLinkingLemma(stem, suffix)
			t[id].lemma = stem
			if suffix != "" {
				t[id].lemma = stem + suffix
			}
		}
	}
	return t
}()

// infoOf returns the table entry of a term that list membership is
// decided by (tokenize.ClassTerm), and whether the table has one: a
// reserved ID or a term interned after the table was built has none, and
// its lemma and linking bit must come from the text.
func infoOf(id uint32) (termInfo, bool) {
	if tokenize.IsVocabTerm(id) && int(id) < len(termInfos) {
		return termInfos[id], true
	}
	return termInfo{}, false
}

// classInfo is infoOf for a tagged token, probing it on first use.
func classInfo(t *TaggedToken) (termInfo, bool) {
	return infoOf(tokenize.ClassTerm(t.TermID(), t.Text))
}

// TermLemma returns VerbLemma(text) for a token whose term is id, from
// the per-term table when the term has an entry: the lemma of a word the
// tagger knows is built once, at initialization, not once per use.
func TermLemma(id uint32, text string) string {
	if info, ok := infoOf(id); ok {
		return info.lemma
	}
	return VerbLemma(text)
}

// lexical assigns the context-free most likely tag for a token. The
// precedence is: the "'s" clitic, the be-forms, Extra, "to" and
// "there", then every other list, then morphology.
func (tg *Tagger) lexical(tok tokenize.Token) Tag {
	switch tok.Kind {
	case tokenize.Number:
		return CD
	case tokenize.Punct, tokenize.Symbol:
		return PCT
	}
	w := tok.Text
	id := tok.Term
	if id == tokenize.TermUnprobed {
		id = tokenize.Probe(w)
	}

	// Possessive clitic from the tokenizer ("camera" + "'s"). Verbal "'s"
	// (= is) is repaired contextually when followed by an adjective or
	// determiner; default to POS after nouns, which the context rules use.
	if id == termPossessive {
		return POS
	}
	e, _ := infoOf(tokenize.ClassTerm(id, w))
	if e.be {
		return e.tag
	}
	if tg.Extra != nil {
		var buf [64]byte
		if t, ok := tg.Extra[string(tokenize.Fold(buf[:0], w))]; ok {
			return t
		}
	}
	switch {
	case id == termTo:
		return TO
	case id == termThere:
		return EX // repaired to RB contextually when not followed by be
	case e.known:
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
	wordIs := func(i int, term uint32) bool {
		return i >= 0 && i < n && ts[i].TermID() == term
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
			!wordIs(i+1, termBy) && !wordIs(i+1, termWith):
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
		case cur == IN && wordIs(i, termLike) && (prev == PRP || prev == NNS || prev == NNP) && (next == DT || next == PRPS || next == NNP):
			ts[i].Tag = VBP

		// "that" as complementizer after a verb: keep IN; as determiner
		// before a noun: DT (already lexical); as relative pronoun after a
		// noun and before a verb: WDT.
		case cur == DT && wordIs(i, termThat) && prev.IsNoun() && (next.IsVerb() || next == MD):
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
			if info, _ := classInfo(&ts[i]); info.plural != 0 {
				ts[i].Tag = info.plural
			}
		}
	}
}

// pluralAsVerb lists -s forms that are far more often 3sg verbs than
// plural nouns when they follow a subject.
var pluralAsVerb = []wordTag{
	{"reports", VBZ}, {"claims", VBZ}, {"plans", VBZ}, {"notes", VBZ},
	{"states", VBZ}, {"estimates", VBZ}, {"costs", VBZ}, {"features", VBZ},
	{"supports", VBZ}, {"results", VBZ}, {"increases", VBZ}, {"decreases", VBZ},
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
// is tested before the lemma, so only verbs outside the table are
// lemmatized.
func isLinkingLike(ts []TaggedToken, j int) bool {
	if j < 0 || j >= len(ts) {
		return false
	}
	info, ok := classInfo(&ts[j])
	if info.be {
		return true
	}
	if !ts[j].Tag.IsVerb() {
		return false
	}
	if ok {
		return info.linking
	}
	return isLinkingVerb(ts[j].Text)
}

// linkingVerbs are the lemmas isLinkingLike accepts.
var linkingVerbs = []string{
	"seem", "look", "feel", "taste", "smell", "appear", "sound",
	"remain", "stay", "become", "get", "turn", "prove", "grow",
}

// isLinkingVerb reports whether VerbLemma(w) is one of linkingVerbs
// without building the lemma: the lower-cased word lives on the stack.
func isLinkingVerb(w string) bool {
	var buf [32]byte
	return isLinkingLemma(lemmaParts(string(tokenize.Fold(buf[:0], w))))
}

// isLinkingLemma reports whether the lemma stem+suffix (lemmaParts) is
// one of linkingVerbs, compared in its two parts.
func isLinkingLemma(stem, suffix string) bool {
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
			id := ts[j].TermID()
			return id == termDo || id == termDoes || id == termDid
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
			if info, _ := classInfo(&ts[j]); info.be {
				return true
			}
			id := ts[j].TermID()
			return id == termHas || id == termHave || id == termHad
		default:
			return false
		}
	}
	return false
}
