package tokenize

import (
	"strings"
	"testing"
	"testing/quick"
)

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeSimpleSentence(t *testing.T) {
	tk := New()
	got := texts(tk.Tokenize("This camera takes excellent pictures."))
	want := []string{"This", "camera", "takes", "excellent", "pictures", "."}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizeContractions(t *testing.T) {
	tk := New()
	cases := []struct {
		in   string
		want []string
	}{
		{"don't", []string{"do", "n't"}},
		{"I'm happy", []string{"I", "'m", "happy"}},
		{"it's the camera's lens", []string{"it", "'s", "the", "camera", "'s", "lens"}},
		{"they're we've you'll I'd", []string{"they", "'re", "we", "'ve", "you", "'ll", "I", "'d"}},
		{"can't won't shouldn't", []string{"ca", "n't", "wo", "n't", "should", "n't"}},
	}
	for _, c := range cases {
		got := texts(tk.Tokenize(c.in))
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	tk := New()
	got := tk.Tokenize("The lens costs 1,299.99 dollars and weighs 2.5 pounds")
	var nums []string
	for _, tok := range got {
		if tok.Kind == Number {
			nums = append(nums, tok.Text)
		}
	}
	if len(nums) != 2 || nums[0] != "1,299.99" || nums[1] != "2.5" {
		t.Errorf("numbers = %v, want [1,299.99 2.5]", nums)
	}
}

func TestTokenizeHyphenated(t *testing.T) {
	tk := New()
	got := texts(tk.Tokenize("a state-of-the-art auto-focus system"))
	want := []string{"a", "state-of-the-art", "auto-focus", "system"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizeAbbreviations(t *testing.T) {
	tk := New()
	toks := texts(tk.Tokenize("Prof. Wilson of American University e.g. U.S. markets"))
	joined := strings.Join(toks, "|")
	for _, want := range []string{"Prof.", "e.g.", "U.S."} {
		found := false
		for _, tok := range toks {
			if tok == want {
				found = true
			}
		}
		if !found {
			t.Errorf("expected token %q in %s", want, joined)
		}
	}
}

func TestTokenOffsets(t *testing.T) {
	tk := New()
	text := "The picture is flawless. The product fails."
	for _, tok := range tk.Tokenize(text) {
		if tok.Start < 0 || tok.End > len(text) || tok.Start >= tok.End {
			t.Fatalf("bad offsets for %+v", tok)
		}
		if tok.Kind == Word && !strings.HasPrefix(text[tok.Start:], tok.Text[:1]) {
			t.Errorf("offset mismatch for %+v: text[%d:]=%q", tok, tok.Start, text[tok.Start:tok.Start+1])
		}
	}
}

func TestSentenceSplitBasic(t *testing.T) {
	tk := New()
	got := tk.Sentences("The picture is flawless. The battery dies fast! Is the flash weak?")
	if len(got) != 3 {
		t.Fatalf("got %d sentences, want 3", len(got))
	}
	if got[0].Tokens[0].Text != "The" || got[1].Tokens[1].Text != "battery" {
		t.Errorf("unexpected sentence contents: %v / %v", got[0].Text(), got[1].Text())
	}
	for i, s := range got {
		if s.Index != i {
			t.Errorf("sentence %d has Index %d", i, s.Index)
		}
	}
}

func TestSentenceSplitAbbreviationNotBoundary(t *testing.T) {
	tk := New()
	got := tk.Sentences("Dr. Smith praised the camera. It was impressive.")
	if len(got) != 2 {
		t.Fatalf("got %d sentences, want 2: %v", len(got), got)
	}
	if !strings.Contains(got[0].Text(), "Dr.") {
		t.Errorf("first sentence lost abbreviation: %q", got[0].Text())
	}
}

func TestSentenceSplitRepeatedPunct(t *testing.T) {
	tk := New()
	got := tk.Sentences("Amazing!!! Totally worth it...")
	if len(got) != 2 {
		t.Fatalf("got %d sentences, want 2: %+v", len(got), got)
	}
}

func TestSentenceTextReconstruction(t *testing.T) {
	tk := New()
	s := tk.Sentences("This camera takes excellent pictures.")
	if len(s) != 1 {
		t.Fatalf("want 1 sentence, got %d", len(s))
	}
	if got := s[0].Text(); got != "This camera takes excellent pictures." {
		t.Errorf("Text() = %q", got)
	}
}

func TestEmptyAndWhitespaceInput(t *testing.T) {
	tk := New()
	if got := tk.Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := tk.Sentences("   \n\t  "); len(got) != 0 {
		t.Errorf("Sentences(whitespace) = %v", got)
	}
}

func TestIsCapitalized(t *testing.T) {
	if !(Token{Text: "Canon"}).IsCapitalized() {
		t.Error("Canon should be capitalized")
	}
	if (Token{Text: "canon"}).IsCapitalized() {
		t.Error("canon should not be capitalized")
	}
	if (Token{Text: ""}).IsCapitalized() {
		t.Error("empty token should not be capitalized")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Word: "Word", Number: "Number", Punct: "Punct", Symbol: "Symbol", Kind(99): "Unknown"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// Property: token spans are non-overlapping, monotonically increasing, and
// stay within bounds for arbitrary input.
func TestQuickTokenSpansMonotonic(t *testing.T) {
	tk := New()
	f := func(s string) bool {
		toks := tk.Tokenize(s)
		prevEnd := 0
		for _, tok := range toks {
			if tok.Start < prevEnd || tok.End > len(s) || tok.Start > tok.End {
				return false
			}
			if tok.End > tok.Start {
				prevEnd = tok.End
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every non-space ASCII letter of the input is covered by some
// token span.
func TestQuickLettersCovered(t *testing.T) {
	tk := New()
	f := func(s string) bool {
		toks := tk.Tokenize(s)
		covered := make([]bool, len(s))
		for _, tok := range toks {
			for i := tok.Start; i < tok.End && i < len(s); i++ {
				covered[i] = true
			}
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
				if !covered[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: sentence splitting partitions the token stream (no token lost,
// none duplicated, order preserved).
func TestQuickSplitPartitionsTokens(t *testing.T) {
	tk := New()
	f := func(s string) bool {
		toks := tk.Tokenize(s)
		sents := tk.Split(toks)
		var flat []Token
		for _, sent := range sents {
			flat = append(flat, sent.Tokens...)
		}
		if len(flat) != len(toks) {
			return false
		}
		for i := range flat {
			if flat[i] != toks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTokenizeURLs(t *testing.T) {
	tk := New()
	cases := []struct {
		in, wantTok string
	}{
		{"See http://reviews.example/nr70 for details.", "http://reviews.example/nr70"},
		{"Posted at https://forum.example/t/123, yesterday.", "https://forum.example/t/123"},
		{"Visit www.dpreview.com today.", "www.dpreview.com"},
	}
	for _, c := range cases {
		toks := tk.Tokenize(c.in)
		found := false
		for _, tok := range toks {
			if tok.Text == c.wantTok && tok.Kind == Symbol {
				found = true
			}
		}
		if !found {
			t.Errorf("Tokenize(%q): URL token %q missing in %v", c.in, c.wantTok, texts(toks))
		}
	}
}

func TestTokenizeURLDoesNotEatSentenceBoundary(t *testing.T) {
	tk := New()
	sents := tk.Sentences("Read http://a.example/x. The review continues.")
	if len(sents) != 2 {
		t.Fatalf("got %d sentences: %v", len(sents), sents)
	}
}

func TestTokenizeEmail(t *testing.T) {
	tk := New()
	toks := tk.Tokenize("Contact support@maker.example for a refund.")
	found := false
	for _, tok := range toks {
		if tok.Text == "support@maker.example" && tok.Kind == Symbol {
			found = true
		}
	}
	if !found {
		t.Errorf("email token missing: %v", texts(toks))
	}
}

func TestTokenizeNonEmailAtSign(t *testing.T) {
	tk := New()
	toks := texts(tk.Tokenize("meet @ noon"))
	joined := strings.Join(toks, "|")
	if joined != "meet|@|noon" {
		t.Errorf("got %v", toks)
	}
}

// TestSpansAndGatedLookaheads pins the token spans the analysis stages
// read: a collapsed run of '!' is one token whose Text is its first
// byte and whose span covers the run, and the gated lookaheads still
// fire for an abbreviation, a "www." host and a scheme URL.
func TestSpansAndGatedLookaheads(t *testing.T) {
	toks := New().Tokenize("Great!!!")
	if len(toks) != 2 {
		t.Fatalf("Great!!!: %d tokens %+v, want 2", len(toks), toks)
	}
	if bang := toks[1]; bang.Text != "!" || bang.Kind != Punct || bang.Start != 5 || bang.End != 8 {
		t.Errorf("Great!!!: run token %+v, want Text \"!\" spanning [5,8)", bang)
	}
	for _, c := range []struct {
		text string
		want string
		kind Kind
	}{
		{"see e.g. this", "e.g.", Word},
		{"visit www.x.com today", "www.x.com", Symbol},
		{"visit http://x now", "http://x", Symbol},
		{"visit HTTPS://x.org/a now", "HTTPS://x.org/a", Symbol},
		{"ask ftp://x now", "ftp://x", Symbol},
	} {
		toks := New().Tokenize(c.text)
		if len(toks) != 3 || toks[1].Text != c.want || toks[1].Kind != c.kind {
			t.Errorf("%q: tokens %+v, want %q (%s) in the middle", c.text, toks, c.want, c.kind)
		}
	}
}

// TestProbeReservedTerms pins the vocabulary's reserved IDs: an ASCII
// word folds to its term, a word outside the lists is TermUnknown, a
// non-ASCII word is TermUnprobeable until LookupFolded resolves it, and
// a token stores its term on first use. This test binary links no
// package that owns a word list, so the test interns its own words.
func TestProbeReservedTerms(t *testing.T) {
	id := Intern("vocabtestword")
	if Intern("vocabtestword") != id || !IsVocabTerm(id) || TermWord(id) != "vocabtestword" {
		t.Fatalf("Intern is not idempotent or TermWord disagrees: %d %q", id, TermWord(id))
	}
	for _, c := range []struct {
		text string
		want uint32
	}{
		{"vocabtestword", id},
		{"VocabTestWord", id},
		{"vocabtestwor", TermUnknown},
		{strings.Repeat("x", MaxTermLen+1), TermUnknown},
		{"vocabtestwörd", TermUnprobeable},
		{strings.Repeat("é", MaxTermLen), TermUnprobeable},
	} {
		if got := Probe(c.text); got != c.want {
			t.Errorf("Probe(%q) = %d, want %d", c.text, got, c.want)
		}
	}
	if got := LookupFolded("VOCABTESTWORD"); got != id {
		t.Errorf("LookupFolded = %d, want %d", got, id)
	}
	// The Kelvin sign lower-cases to an ASCII 'k': unprobeable for the
	// ASCII comparisons, the term itself for list membership.
	kelvin := Intern("kvocab")
	if Probe("\u212Avocab") != TermUnprobeable || ClassTerm(TermUnprobeable, "\u212Avocab") != kelvin {
		t.Errorf("Kelvin-sign word: Probe %d, ClassTerm %d, want %d, %d",
			Probe("\u212Avocab"), ClassTerm(TermUnprobeable, "\u212Avocab"), TermUnprobeable, kelvin)
	}
	tok := Token{Text: "VOCABTESTWORD", Kind: Word}
	if tok.TermID() != id || tok.Term != id {
		t.Errorf("TermID stored %d, want %d", tok.Term, id)
	}
	for _, rid := range []uint32{TermUnprobed, TermUnknown, TermUnprobeable} {
		if IsVocabTerm(rid) || TermWord(rid) != "" {
			t.Errorf("reserved ID %d reads as a vocabulary term", rid)
		}
	}
}
