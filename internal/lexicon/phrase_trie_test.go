package lexicon

import (
	"math/rand"
	"strings"
	"testing"

	"webfountain/internal/pos"
	"webfountain/internal/tokenize"
)

// vocabWords collects every distinct word of every entry so the random
// token streams actually exercise multi-word and prefix collisions.
func vocabWords(lx *Lexicon) []string {
	seen := map[string]bool{}
	var words []string
	for term := range lx.entries {
		for _, w := range strings.Fields(term) {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	return words
}

// lookupPhraseSlow is the pre-automaton candidate scan: for each length
// from the longest entry's down to one, build the ToLower+Join term and
// look it up. It is the reference the trie walk is checked against.
func (lx *Lexicon) lookupPhraseSlow(tokens []pos.TaggedToken, i int) (Polarity, int, bool) {
	maxLen := lx.maxWords
	if rem := len(tokens) - i; maxLen > rem {
		maxLen = rem
	}
	for l := maxLen; l >= 1; l-- {
		parts := make([]string, l)
		for k := 0; k < l; k++ {
			parts[k] = strings.ToLower(tokens[i+k].Text)
		}
		term := strings.Join(parts, " ")
		if pol, ok := lx.Lookup(term, tokens[i].Tag); ok {
			return pol, l, true
		}
		if list := lx.entries[term]; len(list) == 1 && tokens[i].Tag != 0 {
			return list[0].Pol, l, true
		}
	}
	return Neutral, 0, false
}

// TestLookupPhraseMatchesSlowPath drives the trie walk and the original
// ToLower+Join candidate scan over random token streams drawn from the
// lexicon's own vocabulary (plus noise) and requires identical results at
// every position.
func TestLookupPhraseMatchesSlowPath(t *testing.T) {
	lx := Default()
	checkLookupPhraseMatchesSlowPath(t, lx)
}

// TestLookupPhraseLongEntry: an entry with more words than the walk
// keeps on the stack is still found, longest first, exactly where the
// reference scan finds it, prefixes and all.
func TestLookupPhraseLongEntry(t *testing.T) {
	lx := Default()
	long := strings.Fields("the battery died after one week and the shop said " +
		"the warranty does not cover a battery that stopped working")
	if len(long) != 20 {
		t.Fatalf("long entry has %d words, want 20", len(long))
	}
	lx.Add(Entry{Term: strings.Join(long, " "), POS: pos.DT, Pol: Negative})
	lx.Add(Entry{Term: strings.Join(long[:17], " "), POS: pos.DT, Pol: Positive})
	if lx.MaxWords() <= lookupPhraseCands {
		t.Fatalf("MaxWords %d does not exceed the %d stack candidates", lx.MaxWords(), lookupPhraseCands)
	}
	var toks []pos.TaggedToken
	for _, w := range append([]string{"Frankly", ","}, long...) {
		toks = append(toks, pos.TaggedToken{Token: tokenize.Token{Text: strings.ToUpper(w)}, Tag: pos.DT})
	}
	for _, tc := range []struct {
		toks     []pos.TaggedToken
		pol      Polarity
		consumed int
	}{
		{toks, Negative, 20},
		{toks[:21], Positive, 17}, // one word short of the long entry
		{toks[:19], Positive, 17},
		{toks[:18], Neutral, 0},
	} {
		pol, l, ok := lx.LookupPhrase(tc.toks, 2)
		if pol != tc.pol || l != tc.consumed || ok != (tc.consumed > 0) {
			t.Errorf("%d tokens: got (%v,%d,%v), want (%v,%d)", len(tc.toks), pol, l, ok, tc.pol, tc.consumed)
		}
		for i := range tc.toks {
			gp, gl, gok := lx.LookupPhrase(tc.toks, i)
			wp, wl, wok := lx.lookupPhraseSlow(tc.toks, i)
			if gp != wp || gl != wl || gok != wok {
				t.Fatalf("%d tokens, pos %d: trie (%v,%d,%v) != slow (%v,%d,%v)",
					len(tc.toks), i, gp, gl, gok, wp, wl, wok)
			}
		}
	}
	checkLookupPhraseMatchesSlowPath(t, lx)
}

func checkLookupPhraseMatchesSlowPath(t *testing.T, lx *Lexicon) {
	t.Helper()
	words := vocabWords(lx)
	noise := []string{"the", "a", "zzz", "Frobnicate", ",", ".", "it"}
	tags := []pos.Tag{pos.NN, pos.NNS, pos.JJ, pos.JJR, pos.VB, pos.VBN, pos.RB, pos.DT, 0}

	for _, seed := range []int64{1, 42, 20050405} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(12)
			toks := make([]pos.TaggedToken, n)
			for i := range toks {
				var w string
				if rng.Intn(4) == 0 {
					w = noise[rng.Intn(len(noise))]
				} else {
					w = words[rng.Intn(len(words))]
				}
				if rng.Intn(3) == 0 {
					w = strings.ToUpper(w) // exercise case folding
				}
				toks[i] = pos.TaggedToken{Token: tokenize.Token{Text: w}, Tag: tags[rng.Intn(len(tags))]}
			}
			for i := 0; i < n; i++ {
				gp, gl, gok := lx.LookupPhrase(toks, i)
				wp, wl, wok := lx.lookupPhraseSlow(toks, i)
				if gp != wp || gl != wl || gok != wok {
					t.Fatalf("seed %d trial %d pos %d (%v): trie (%v,%d,%v) != slow (%v,%d,%v)",
						seed, trial, i, toks, gp, gl, gok, wp, wl, wok)
				}
			}
		}
	}
}

// TestIrregularSpacingStaysUnreachable: an entry key that is not its
// words joined by single spaces is never a probe's key, so no token
// sequence reaches it, while its single-spaced twin, when present, is
// reached as before.
func TestIrregularSpacingStaysUnreachable(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want bool
	}{
		{"good", true}, {"battery drain", true}, {"", false}, {" good", false},
		{"good ", false}, {"battery  drain", false}, {"battery\tdrain", false},
		{"battery\u00a0drain", false}, {"naïve choice", true}, {"naïve  choice", false},
	} {
		if got := singleSpaced(tc.s); got != tc.want || got != (strings.Join(strings.Fields(tc.s), " ") == tc.s && tc.s != "") {
			t.Errorf("singleSpaced(%q) = %v, want %v", tc.s, got, tc.want)
		}
	}
	lx := Default()
	lx.Add(Entry{Term: "battery  drain", POS: pos.NN, Pol: Negative})
	lx.Add(Entry{Term: "lens\u00a0flare", POS: pos.NN, Pol: Negative})
	lx.Add(Entry{Term: " shutter lag", POS: pos.NN, Pol: Negative})
	lx.Add(Entry{Term: "shutter lag", POS: pos.NN, Pol: Positive})
	toks := func(words ...string) []pos.TaggedToken {
		var ts []pos.TaggedToken
		for _, w := range words {
			ts = append(ts, pos.TaggedToken{Token: tokenize.Token{Text: w}, Tag: pos.NN})
		}
		return ts
	}
	for _, ts := range [][]pos.TaggedToken{toks("battery", "drain"), toks("lens", "flare")} {
		if pol, l, ok := lx.LookupPhrase(ts, 0); ok && l > 1 {
			t.Errorf("%v reached an irregularly spaced entry: (%v,%d)", ts, pol, l)
		}
	}
	if pol, l, ok := lx.LookupPhrase(toks("shutter", "lag"), 0); !ok || l != 2 || pol != Positive {
		t.Errorf("single-spaced twin: got (%v,%d,%v), want (+,2,true)", pol, l, ok)
	}
	checkLookupPhraseMatchesSlowPath(t, lx)
}

// TestLookupPhraseTrieInvalidation proves Add after a lookup rebuilds the
// automaton so new multi-word entries are found.
func TestLookupPhraseTrieInvalidation(t *testing.T) {
	lx := New()
	lx.Add(Entry{Term: "battery", POS: pos.NN, Pol: Negative})
	toks := []pos.TaggedToken{
		{Token: tokenize.Token{Text: "battery"}, Tag: pos.NN},
		{Token: tokenize.Token{Text: "drain"}, Tag: pos.NN},
	}
	if pol, l, ok := lx.LookupPhrase(toks, 0); !ok || l != 1 || pol != Negative {
		t.Fatalf("before Add: got (%v,%d,%v)", pol, l, ok)
	}
	lx.Add(Entry{Term: "battery drain", POS: pos.NN, Pol: Positive})
	if pol, l, ok := lx.LookupPhrase(toks, 0); !ok || l != 2 || pol != Positive {
		t.Fatalf("after Add: got (%v,%d,%v), want longest-first 2-word match", pol, l, ok)
	}
}

// TestLookupPhraseAllocs pins the zero-allocation contract of the trie
// walk for both hit and miss positions.
func TestLookupPhraseAllocs(t *testing.T) {
	lx := Shared()
	toks := []pos.TaggedToken{
		{Token: tokenize.Token{Text: "The"}, Tag: pos.DT},
		{Token: tokenize.Token{Text: "Battery"}, Tag: pos.NN},
		{Token: tokenize.Token{Text: "life"}, Tag: pos.NN},
		{Token: tokenize.Token{Text: "is"}, Tag: pos.VBZ},
		{Token: tokenize.Token{Text: "excellent"}, Tag: pos.JJ},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range toks {
			lx.LookupPhrase(toks, i)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupPhrase allocates %v per scan, want 0", allocs)
	}
}
