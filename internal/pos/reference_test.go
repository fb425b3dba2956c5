package pos

import (
	"bytes"
	"strings"
	"testing"

	"webfountain/internal/tokenize"
)

// The word lists as the maps the reference probes.
var (
	refDeterminers        = wordSet(determiners)
	refModals             = wordSet(modals)
	refPossessivePronouns = wordSet(possessivePronouns)
	refPronouns           = wordSet(pronouns)
	refConjunctions       = wordSet(conjunctions)
	refPrepositions       = wordSet(prepositions)
	refBeForms            = tagMap(beForms)
	refWhWords            = tagMap(whWords)
	refIrregularVerbs     = tagMap(irregularVerbs)
	refLexicon            = tagMap(lexicon)
)

func wordSet(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

func tagMap(list []wordTag) map[string]Tag {
	m := make(map[string]Tag, len(list))
	for _, wt := range list {
		m[wt.word] = wt.tag
	}
	return m
}

// TestWordListsHaveNoDuplicates holds the lists to what their map
// literals guaranteed: a word appears at most once in each.
func TestWordListsHaveNoDuplicates(t *testing.T) {
	lists := map[string][]string{
		"determiners": determiners, "modals": modals, "possessivePronouns": possessivePronouns,
		"pronouns": pronouns, "conjunctions": conjunctions, "prepositions": prepositions,
	}
	for name, list := range map[string][]wordTag{
		"beForms": beForms, "whWords": whWords, "irregularVerbs": irregularVerbs,
		"lexicon": lexicon, "pluralAsVerb": pluralAsVerb,
	} {
		for _, wt := range list {
			lists[name] = append(lists[name], wt.word)
		}
	}
	for name, words := range lists {
		seen := map[string]bool{}
		for _, w := range words {
			if seen[w] {
				t.Errorf("%s holds %q twice", name, w)
			}
			seen[w] = true
		}
	}
}

// refLexical is Tagger.lexical as it was before the closed-class lists,
// wh-words, irregular verbs and the lexicon were merged into one table:
// up to ten case-folded probes of separate maps per token. It is the
// oracle the one-probe tagger must match tag for tag.
func refLexical(tg *Tagger, tok tokenize.Token) Tag {
	switch tok.Kind {
	case tokenize.Number:
		return CD
	case tokenize.Punct, tokenize.Symbol:
		return PCT
	}
	w := tok.Text
	if foldEq(w, "'s") {
		return POS
	}
	if t, ok := refFoldProbe(refBeForms, w); ok {
		return t
	}
	if tg.Extra != nil {
		if t, ok := refFoldProbe(tg.Extra, w); ok {
			return t
		}
	}
	switch {
	case foldEq(w, "to"):
		return TO
	case foldEq(w, "there"):
		return EX
	case refProbe(refDeterminers, w):
		return DT
	case refProbe(refModals, w):
		return MD
	case refProbe(refPossessivePronouns, w):
		return PRPS
	case refProbe(refPronouns, w):
		return PRP
	case refProbe(refConjunctions, w):
		return CC
	case refProbe(refPrepositions, w):
		return IN
	}
	if t, ok := refFoldProbe(refWhWords, w); ok {
		return t
	}
	if t, ok := refFoldProbe(refIrregularVerbs, w); ok {
		return t
	}
	if t, ok := refFoldProbe(refLexicon, w); ok {
		return t
	}
	if tok.IsCapitalized() {
		if strings.HasSuffix(w, "s") && len(w) > 3 && !hasSuffixFold(w, "ss") {
			return NNPS
		}
		return NNP
	}
	return refSuffixTag(w)
}

// refSuffixTag is suffixTag as it was: the morphology rules in order,
// each suffix compared with an ASCII-lowered copy of the word.
func refSuffixTag(w string) Tag {
	lw := []byte(w)
	for i, c := range lw {
		if 'A' <= c && c <= 'Z' {
			lw[i] = c + 'a' - 'A'
		}
	}
	has := func(suffixes ...string) bool {
		for _, suf := range suffixes {
			if bytes.HasSuffix(lw, []byte(suf)) {
				return true
			}
		}
		return false
	}
	switch {
	case strings.Contains(w, "-"):
		return JJ
	case has("ly") && len(w) > 4:
		return RB
	case has("ing") && len(w) > 5:
		return VBG
	case has("ed") && len(w) > 4:
		return VBN
	case has("tion", "sion", "ment", "ness", "ance", "ence", "ship", "ity", "ism", "age", "ure", "cy"):
		return NN
	case has("ous", "ful", "able", "ible", "ive", "ish", "less", "ic", "al", "ary"):
		return JJ
	case has("est") && len(w) > 4:
		return JJS
	case has("er") && len(w) > 4:
		return NN
	case has("ies"):
		return NNS
	case has("s") && !has("ss") && len(w) > 3:
		return NNS
	}
	return NN
}

func refFoldProbe[V any](m map[string]V, s string) (V, bool) {
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

func refProbe(m map[string]bool, s string) bool {
	v, _ := refFoldProbe(m, s)
	return v
}

// refIsLinkingLike is isLinkingLike as it was: it lemmatizes every word
// before it looks at the tag.
func refIsLinkingLike(ts []TaggedToken, j int) bool {
	if j < 0 || j >= len(ts) {
		return false
	}
	if _, ok := refFoldProbe(refBeForms, ts[j].Text); ok {
		return true
	}
	switch refVerbLemma(strings.ToLower(ts[j].Text)) {
	case "seem", "look", "feel", "taste", "smell", "appear", "sound",
		"remain", "stay", "become", "get", "turn", "prove", "grow":
		return ts[j].Tag.IsVerb()
	}
	return false
}

// refVerbLemma is VerbLemma as it was, building every lemma as a string.
func refVerbLemma(w string) string {
	lw := strings.ToLower(w)
	if base, ok := irregularLemmas[lw]; ok {
		return base
	}
	switch {
	case strings.HasSuffix(lw, "ies") && len(lw) > 4:
		return lw[:len(lw)-3] + "y"
	case strings.HasSuffix(lw, "sses"), strings.HasSuffix(lw, "shes"),
		strings.HasSuffix(lw, "ches"), strings.HasSuffix(lw, "xes"),
		strings.HasSuffix(lw, "zes"):
		return lw[:len(lw)-2]
	case strings.HasSuffix(lw, "oes") && len(lw) > 3:
		return lw[:len(lw)-2]
	case strings.HasSuffix(lw, "s") && !strings.HasSuffix(lw, "ss") && len(lw) > 3:
		return lw[:len(lw)-1]
	case strings.HasSuffix(lw, "ied") && len(lw) > 4:
		return lw[:len(lw)-3] + "y"
	case strings.HasSuffix(lw, "ing") && len(lw) > 5:
		return refRestoreE(undouble(lw[:len(lw)-3]))
	case strings.HasSuffix(lw, "ed") && len(lw) > 4:
		return refRestoreE(undouble(lw[:len(lw)-2]))
	}
	return lw
}

func refRestoreE(stem string) string {
	if len(stem) == 0 {
		return stem
	}
	for _, suf := range []string{"at", "iz", "is", "us", "as", "os", "ang", "ast",
		"vid", "cid", "sid",
		"uc", "ac", "ic", "nc", "rc", "g", "v", "u", "ir", "ur", "or",
		"ibl", "abl", "pl", "cl", "bl", "dl", "tl", "gl", "fl", "kl", "sl", "zl",
		"quir", "par", "car", "tur"} {
		if strings.HasSuffix(stem, suf) {
			if suf == "g" && strings.HasSuffix(stem, "ng") {
				return stem
			}
			return stem + "e"
		}
	}
	return stem
}

// taggerSeeds reach each precedence step of the lexical pass: the "'s"
// and be-form cases that outrank Extra, the "to"/"there" cases that
// Extra outranks, words held by two lists, linking verbs in every
// inflection before a participle, and non-ASCII forms — the Kelvin sign
// and the dotted capital I lower-case to ASCII letters.
var taggerSeeds = []string{
	"The NR70 takes excellent pictures, but it's not what I'd like to see there.",
	"There IS no way TO know; THE camera's lens seems convoluted and looks washed-out.",
	"It seemed impressed. They became disappointed. She tried, he applies, it proves amazing.",
	"That remained interesting; the battery stayed charged. Tasted burnt, smelled awful.",
	"Mail bob@example.com or visit www.example.com and http://x.org.",
	"İs it? İT İS. Kelvin Knows Käse naïve Ørsted ſo",
	"Hers mine yours ours theirs whose whichever however whatever.",
	"I don't, can't, won't; we're, they've, you'll. 'S 'RE 'M N'T",
	"Outperformed exceeded beating grown written Gotten sTaYs staies",
	"It tastied odd, it seeies fine, it growies and becomied turnies.",
	"and or but nor yet so plus like unlike as since until",
	// Unknown words reaching every morphology rule of suffixTag on each
	// side of its length bounds, then with upper-case suffixes after a
	// lower-case first letter (a capital one makes the word NNP).
	"zorp-zap qqly qqqly qqing qqqing qqed qqqed frobination vexsion plonkment zanyness zorpnes grobance " +
		"flurence wugship blarity frobism snarfage glorpure frobcy zorpous zorpful zorpable zorpible " +
		"zorpive zorpish zorpless zorpic zorpal zorpary qqest qqqest qqer qqqer ies qies zorpies qqs qqqs zorpss zorp",
	"gLORPLY bLORKING gLORPED fROBINATION pLONKMENT zANYNESS zORPOUS zORPFUL zORPARY zORPEST zORPER zORPIES zORPS zORPSS",
}

// taggerExtra overrides words at every precedence step, including ones
// Extra must not win ("is", "'s") and ones it must ("to", "there", "the").
var taggerExtra = map[string]Tag{
	"is": NN, "'s": NN, "to": NN, "there": NN, "the": NN, "great": VB,
	"nr70": NNP, "k": JJ, "kelvin": RB, "seems": NN, "it": NNP,
}

// checkTaggerMatchesReference compares the lexical pass with refLexical
// token by token, with and without Extra, and isLinkingLike with
// refIsLinkingLike at every position — once under the tags the tagger
// gave and once with every token forced to a verb tag, so the lemma is
// consulted for every word. Context repair is otherwise unchanged, so
// together these pin AppendTags.
func checkTaggerMatchesReference(t *testing.T, text string) {
	t.Helper()
	toks := tokenize.New().Tokenize(text)
	toks = append(toks, tokenize.Token{Text: text, Kind: tokenize.Word})
	for _, tg := range []*Tagger{NewTagger(), {Extra: taggerExtra}} {
		for i, tok := range toks {
			if got, want := tg.lexical(tok), refLexical(tg, tok); got != want {
				t.Fatalf("%q (Extra %v): token %d %q tagged %s, reference %s", text, tg.Extra != nil, i, tok.Text, got, want)
			}
		}
		tagged := tg.AppendTags(nil, toks)
		forced := append([]TaggedToken(nil), tagged...)
		for i := range forced {
			forced[i].Tag = VBD
		}
		for _, ts := range [][]TaggedToken{tagged, forced} {
			for j := -1; j <= len(ts); j++ {
				if got, want := isLinkingLike(ts, j), refIsLinkingLike(ts, j); got != want {
					t.Fatalf("%q: isLinkingLike(%d) = %v, reference %v", text, j, got, want)
				}
			}
		}
	}
	for _, tok := range toks {
		if got, want := VerbLemma(tok.Text), refVerbLemma(tok.Text); got != want {
			t.Fatalf("VerbLemma(%q) = %q, reference %q", tok.Text, got, want)
		}
	}
}

// FuzzTaggerMatchesReference: the merged-table tagger and the
// tag-first linking test agree with the reference on any input.
func FuzzTaggerMatchesReference(f *testing.F) {
	for _, s := range taggerSeeds {
		f.Add(s)
	}
	f.Fuzz(checkTaggerMatchesReference)
}

// TestTaggerMatchesReferenceOnVocabulary runs the differential check
// over the fuzz seeds and over every word the lists hold, in lower,
// title and upper case.
func TestTaggerMatchesReferenceOnVocabulary(t *testing.T) {
	for _, s := range taggerSeeds {
		checkTaggerMatchesReference(t, s)
	}
	var words []string
	for _, list := range [][]string{determiners, modals, possessivePronouns, pronouns, conjunctions, prepositions} {
		words = append(words, list...)
	}
	for _, list := range [][]wordTag{beForms, whWords, irregularVerbs, lexicon} {
		for _, wt := range list {
			words = append(words, wt.word)
		}
	}
	for w := range taggerExtra {
		words = append(words, w)
	}
	for w := range irregularLemmas {
		words = append(words, w)
	}
	var b strings.Builder
	for i, w := range words {
		b.WriteString(w + " " + strings.ToUpper(w[:1]) + w[1:] + " " + strings.ToUpper(w) + " ")
		if i%20 == 19 {
			checkTaggerMatchesReference(t, b.String())
			b.Reset()
		}
	}
	checkTaggerMatchesReference(t, b.String())
}
