package lexicon

import (
	"strings"
	"testing"
	"testing/quick"

	"webfountain/internal/pos"
	"webfountain/internal/tokenize"
)

// defaultEntries flattens the core entry table in the order Default adds
// it.
func defaultEntries() []Entry {
	var all []Entry
	for _, g := range coreGroups {
		for _, term := range g.terms {
			all = append(all, Entry{Term: term, POS: g.tag, Pol: g.pol})
		}
	}
	return all
}

func TestDefaultLexiconNonTrivial(t *testing.T) {
	lx := Default()
	if lx.Len() < 500 {
		t.Errorf("default lexicon has %d terms, want >= 500", lx.Len())
	}
	if lx.MaxWords() < 3 {
		t.Errorf("expected multi-word entries, MaxWords = %d", lx.MaxWords())
	}
}

func TestLookupBasic(t *testing.T) {
	lx := Default()
	cases := []struct {
		term string
		tag  pos.Tag
		want Polarity
	}{
		{"excellent", pos.JJ, Positive},
		{"Excellent", pos.JJ, Positive}, // case-insensitive
		{"mediocre", pos.JJ, Negative},
		{"masterpiece", pos.NN, Positive},
		{"disaster", pos.NN, Negative},
		{"love", pos.VB, Positive},
		{"hate", pos.VB, Negative},
		{"flawlessly", pos.RB, Positive},
		{"poorly", pos.RB, Negative},
	}
	for _, c := range cases {
		got, ok := lx.Lookup(c.term, c.tag)
		if !ok || got != c.want {
			t.Errorf("Lookup(%q, %s) = %v, %v; want %v", c.term, c.tag, got, ok, c.want)
		}
	}
}

func TestLookupTagClassCompatibility(t *testing.T) {
	lx := Default()
	// JJ entry must match JJR/JJS; VB entry must match VBZ/VBD etc.
	if pol, ok := lx.Lookup("good", pos.JJR); !ok || pol != Positive {
		t.Error("JJ entry should cover JJR")
	}
	if pol, ok := lx.Lookup("love", pos.VBZ); !ok || pol != Positive {
		t.Error("VB entry should cover VBZ")
	}
	if pol, ok := lx.Lookup("disaster", pos.NNS); !ok || pol != Negative {
		t.Error("NN entry should cover NNS")
	}
	// Wrong class should not match: "love" as a noun is not listed.
	if _, ok := lx.Lookup("excellent", pos.NN); ok {
		t.Error("JJ-only entry matched NN")
	}
}

func TestLookupMiss(t *testing.T) {
	lx := Default()
	if _, ok := lx.Lookup("camera", pos.NN); ok {
		t.Error("neutral word found in sentiment lexicon")
	}
	if pol, ok := lx.LookupAny("zorblefritz"); ok || pol != Neutral {
		t.Error("unknown word should miss")
	}
}

func TestLookupPhraseMultiWord(t *testing.T) {
	lx := Default()
	tk := tokenize.New()
	tg := pos.NewTagger()
	tokens := tg.Tag(tk.Tokenize("this is a waste of money overall"))
	// find index of "waste"
	idx := -1
	for i, tok := range tokens {
		if tok.Text == "waste" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("waste not found")
	}
	pol, n, ok := lx.LookupPhrase(tokens, idx)
	if !ok || pol != Negative || n != 3 {
		t.Errorf("LookupPhrase(waste of money) = %v, %d, %v", pol, n, ok)
	}
}

func TestLookupPhraseSingleFallback(t *testing.T) {
	lx := Default()
	tk := tokenize.New()
	tg := pos.NewTagger()
	tokens := tg.Tag(tk.Tokenize("an excellent camera"))
	pol, n, ok := lx.LookupPhrase(tokens, 1)
	if !ok || pol != Positive || n != 1 {
		t.Errorf("LookupPhrase(excellent) = %v, %d, %v", pol, n, ok)
	}
}

func TestPolarityStringAndFlip(t *testing.T) {
	if Positive.String() != "+" || Negative.String() != "-" || Neutral.String() != "0" {
		t.Error("Polarity.String wrong")
	}
	if Positive.Flip() != Negative || Negative.Flip() != Positive || Neutral.Flip() != Neutral {
		t.Error("Flip wrong")
	}
}

func TestParseLineFormats(t *testing.T) {
	input := `
# comment line
"excellent" JJ +
"battery drain" NN -
lousy JJ -
`
	entries, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	if entries[1].Term != "battery drain" || entries[1].Pol != Negative || entries[1].POS != pos.NN {
		t.Errorf("entry[1] = %+v", entries[1])
	}
	if entries[2].Term != "lousy" {
		t.Errorf("entry[2] = %+v", entries[2])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		`"unterminated JJ +`,
		`excellent JJ`,
		`excellent JJ ?`,
		`loneword`,
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestLoadIntoLexicon(t *testing.T) {
	lx := New()
	err := lx.Load(strings.NewReader(`"splendiferous" JJ +`))
	if err != nil {
		t.Fatal(err)
	}
	if pol, ok := lx.Lookup("splendiferous", pos.JJ); !ok || pol != Positive {
		t.Error("loaded entry not found")
	}
}

func TestAddOverride(t *testing.T) {
	lx := New()
	lx.Add(Entry{Term: "sick", POS: pos.JJ, Pol: Negative})
	lx.Add(Entry{Term: "sick", POS: pos.JJ, Pol: Positive}) // slang flip
	if pol, _ := lx.Lookup("sick", pos.JJ); pol != Positive {
		t.Error("override did not take effect")
	}
	if lx.Len() != 1 {
		t.Errorf("Len = %d, want 1", lx.Len())
	}
}

// TestEntryTagSemantics pins what the string-typed tag gave for free:
// an entry whose POS is the zero tag ("" in the line format's days) is a
// wildcard that matches every tag, and an entry whose POS name is not a
// Penn tag ("XYZ", or lower-case "jj") parses and matches no token under
// Lookup.
func TestEntryTagSemantics(t *testing.T) {
	lx := Default()
	lx.Add(Entry{Term: "zorpy", Pol: Positive})
	if err := lx.Load(strings.NewReader("\"glorbish\" XYZ +\nsnarfy jj -\n")); err != nil {
		t.Fatal(err)
	}
	tags := []pos.Tag{0}
	for i := 1; ; i++ {
		tag, ok := pos.ParseTag(pos.Tag(i).String())
		if !ok {
			break
		}
		tags = append(tags, tag)
	}
	if len(tags) < 30 {
		t.Fatalf("only %d tags enumerated", len(tags))
	}
	for _, tag := range tags {
		if pol, ok := lx.Lookup("zorpy", tag); !ok || pol != Positive {
			t.Errorf("wildcard entry under %q: (%v, %v), want (+, true)", tag, pol, ok)
		}
		for _, term := range []string{"glorbish", "snarfy"} {
			if pol, ok := lx.Lookup(term, tag); ok {
				t.Errorf("entry with an unknown POS matched %q: %v", tag, pol)
			}
		}
	}
	if pol, ok := lx.Lookup("excellent", pos.JJ); !ok || pol != Positive {
		t.Errorf("embedded entry lost: (%v, %v)", pol, ok)
	}
	// LookupPhrase's single-reading fallback accepts a lone reading
	// whatever its POS, so an unknown-POS entry is found there under any
	// real tag, and never under the zero tag.
	toks := []pos.TaggedToken{{Token: tokenize.Token{Text: "Glorbish"}, Tag: pos.NN}}
	if pol, l, ok := lx.LookupPhrase(toks, 0); !ok || l != 1 || pol != Positive {
		t.Errorf("single-reading fallback: (%v, %d, %v)", pol, l, ok)
	}
	toks[0].Tag = 0
	if _, _, ok := lx.LookupPhrase(toks, 0); ok {
		t.Error("untagged token matched an unknown-POS entry")
	}
}

func TestNoContradictoryDefaultEntries(t *testing.T) {
	seen := map[string]Polarity{}
	for _, e := range defaultEntries() {
		key := e.Term + "/" + string(e.POS)
		if prev, ok := seen[key]; ok && prev != e.Pol {
			t.Errorf("contradictory entries for %s", key)
		}
		seen[key] = e.Pol
	}
}

// Property: Lookup is total and consistent with LookupAny for single-
// reading terms.
func TestQuickLookupConsistent(t *testing.T) {
	lx := Default()
	entries := defaultEntries()
	f := func(idx uint16) bool {
		e := entries[int(idx)%len(entries)]
		pol, ok := lx.Lookup(e.Term, e.POS)
		return ok && pol == e.Pol || hasOverride(entries, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func hasOverride(entries []Entry, e Entry) bool {
	n := 0
	for _, x := range entries {
		if x.Term == e.Term && x.POS == e.POS {
			n++
		}
	}
	return n > 1
}

func TestLookupComparative(t *testing.T) {
	lx := Default()
	cases := map[string]Polarity{
		"better":   Positive,
		"best":     Positive,
		"worse":    Negative,
		"worst":    Negative,
		"sharper":  Positive,
		"sharpest": Positive,
		"noisier":  Negative,
		"brighter": Positive,
		"bigger":   Neutral, // "big" is not a sentiment word
	}
	for w, want := range cases {
		got, ok := lx.LookupComparative(w)
		if want == Neutral {
			if ok {
				t.Errorf("LookupComparative(%q) = %v, want miss", w, got)
			}
			continue
		}
		if !ok || got != want {
			t.Errorf("LookupComparative(%q) = %v, %v; want %v", w, got, ok, want)
		}
	}
	if _, ok := lx.LookupComparative("zoom"); ok {
		t.Error("non-comparative should miss")
	}
}
