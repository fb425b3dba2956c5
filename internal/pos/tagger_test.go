package pos

import (
	"strings"
	"testing"
	"testing/quick"

	"webfountain/internal/tokenize"
)

func tagOf(t *testing.T, sentence string) []TaggedToken {
	t.Helper()
	tk := tokenize.New()
	return NewTagger().Tag(tk.Tokenize(sentence))
}

// assertTags checks the tag sequence for a sentence, ignoring punctuation.
func assertTags(t *testing.T, sentence string, want ...Tag) {
	t.Helper()
	tagged := tagOf(t, sentence)
	var got []Tag
	for _, tt := range tagged {
		if tt.Tag != PCT {
			got = append(got, tt.Tag)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%q: got %d tags %v, want %d %v", sentence, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%q: token %d got %s, want %s (full: %v)", sentence, i, got[i], want[i], got)
		}
	}
}

func TestTagSimpleCopula(t *testing.T) {
	assertTags(t, "The colors are vibrant.", DT, NNS, VBP, JJ)
}

func TestTagTransitiveVerb(t *testing.T) {
	assertTags(t, "This camera takes excellent pictures.", DT, NN, VBZ, JJ, NNS)
}

func TestTagOfferSentence(t *testing.T) {
	assertTags(t, "The company offers mediocre services.", DT, NN, VBZ, JJ, NNS)
}

func TestTagPassiveImpress(t *testing.T) {
	assertTags(t, "I am impressed by the picture quality.", PRP, VBP, VBN, IN, DT, NN, NN)
}

func TestTagDefiniteBaseNounPhrase(t *testing.T) {
	assertTags(t, "The battery life is excellent.", DT, NN, NN, VBZ, JJ)
	assertTags(t, "The picture is flawless.", DT, NN, VBZ, JJ)
}

func TestTagNegation(t *testing.T) {
	tagged := tagOf(t, "The flash does not work well.")
	var notTag Tag
	for _, tt := range tagged {
		if tt.Text == "not" {
			notTag = tt.Tag
		}
	}
	if notTag != RB {
		t.Errorf("'not' tagged %s, want RB", notTag)
	}
}

func TestTagContractedNegation(t *testing.T) {
	tagged := tagOf(t, "The menu doesn't respond.")
	joined := ""
	for _, tt := range tagged {
		joined += tt.Tag.String() + " "
	}
	if !strings.Contains(joined, "RB") {
		t.Errorf("expected RB for n't in %s", joined)
	}
}

func TestTagProperNouns(t *testing.T) {
	tagged := tagOf(t, "Canon outsells Nikon in Japan.")
	for _, tt := range tagged {
		switch tt.Text {
		case "Canon", "Nikon", "Japan":
			if !tt.Tag.IsProperNoun() {
				t.Errorf("%s tagged %s, want proper noun", tt.Text, tt.Tag)
			}
		}
	}
}

func TestTagModalForcesBaseForm(t *testing.T) {
	tagged := tagOf(t, "You should buy this camera.")
	for _, tt := range tagged {
		if tt.Text == "buy" && tt.Tag != VB {
			t.Errorf("buy after modal tagged %s, want VB", tt.Tag)
		}
	}
}

func TestTagToInfinitive(t *testing.T) {
	tagged := tagOf(t, "I want to love this album.")
	for _, tt := range tagged {
		if tt.Text == "love" && tt.Tag != VB {
			t.Errorf("love after to tagged %s, want VB", tt.Tag)
		}
		if tt.Text == "to" && tt.Tag != TO {
			t.Errorf("to tagged %s, want TO", tt.Tag)
		}
	}
}

func TestTagPossessiveVsIs(t *testing.T) {
	// Possessive: "the camera's lens" -> POS.
	tagged := tagOf(t, "The camera's lens is sharp.")
	sawPOS := false
	for _, tt := range tagged {
		if tt.Text == "'s" && tt.Tag == POS {
			sawPOS = true
		}
	}
	if !sawPOS {
		t.Error("expected 's tagged POS in possessive context")
	}
	// Copular: "the picture's really sharp" -> VBZ.
	tagged = tagOf(t, "The picture's really sharp.")
	sawVBZ := false
	for _, tt := range tagged {
		if tt.Text == "'s" && tt.Tag == VBZ {
			sawVBZ = true
		}
	}
	if !sawVBZ {
		t.Error("expected 's tagged VBZ in copular context")
	}
}

func TestTagUnknownWordSuffixes(t *testing.T) {
	cases := map[string]Tag{
		"zorply":         RB,
		"blargification": NN,
		"frobnicating":   VBG,
		"glorptastic":    JJ,
		"zibbles":        NNS,
	}
	tg := NewTagger()
	tk := tokenize.New()
	for w, want := range cases {
		tagged := tg.Tag(tk.Tokenize("it " + w))
		got := tagged[1].Tag
		if got != want {
			t.Errorf("unknown %q tagged %s, want %s", w, got, want)
		}
	}
}

func TestTagNumbersAndPunct(t *testing.T) {
	tagged := tagOf(t, "It costs 299 dollars.")
	for _, tt := range tagged {
		if tt.Text == "299" && tt.Tag != CD {
			t.Errorf("299 tagged %s, want CD", tt.Tag)
		}
		if tt.Text == "." && tt.Tag != PCT {
			t.Errorf(". tagged %s, want PCT", tt.Tag)
		}
	}
}

func TestTagExtraLexicon(t *testing.T) {
	tg := &Tagger{Extra: map[string]Tag{"nr70": NNP}}
	tk := tokenize.New()
	tagged := tg.Tag(tk.Tokenize("the nr70 is great"))
	if tagged[1].Tag != NNP {
		t.Errorf("Extra lexicon ignored: nr70 tagged %s", tagged[1].Tag)
	}
}

func TestTagVerbAfterDeterminerBecomesNoun(t *testing.T) {
	tagged := tagOf(t, "The lack of memory sticks is annoying.")
	if tagged[1].Text != "lack" || tagged[1].Tag != NN {
		t.Errorf("'the lack' tagged %s, want NN", tagged[1].Tag)
	}
}

func TestTagPastAfterSubject(t *testing.T) {
	tagged := tagOf(t, "The flash disappointed everyone.")
	for _, tt := range tagged {
		if tt.Text == "disappointed" && tt.Tag != VBD {
			t.Errorf("disappointed tagged %s, want VBD after subject", tt.Tag)
		}
	}
	// But keep VBN in passive: "was disappointed".
	tagged = tagOf(t, "Everyone was disappointed by the flash.")
	for _, tt := range tagged {
		if tt.Text == "disappointed" && tt.Tag != VBN {
			t.Errorf("disappointed tagged %s, want VBN in passive", tt.Tag)
		}
	}
}

func TestTagIsNounIsVerbHelpers(t *testing.T) {
	if !NN.IsNoun() || !NNPS.IsNoun() || JJ.IsNoun() {
		t.Error("IsNoun misclassifies")
	}
	if !NNP.IsProperNoun() || NN.IsProperNoun() {
		t.Error("IsProperNoun misclassifies")
	}
	if !JJR.IsAdjective() || NN.IsAdjective() {
		t.Error("IsAdjective misclassifies")
	}
	if !VBZ.IsVerb() || MD.IsVerb() || NN.IsVerb() {
		t.Error("IsVerb misclassifies")
	}
	if !RBS.IsAdverb() || JJ.IsAdverb() {
		t.Error("IsAdverb misclassifies")
	}
}

// TestTagNamesRoundTrip: every tag renders its Penn Treebank name and
// ParseTag reads it back; the zero Tag renders "" and parses from it,
// and a name outside the tagset parses to a tag no constant holds.
func TestTagNamesRoundTrip(t *testing.T) {
	names := map[Tag]string{
		CC: "CC", CD: "CD", DT: "DT", EX: "EX", FW: "FW", IN: "IN",
		JJ: "JJ", JJR: "JJR", JJS: "JJS", MD: "MD", NN: "NN", NNS: "NNS",
		NNP: "NNP", NNPS: "NNPS", PDT: "PDT", POS: "POS", PRP: "PRP",
		PRPS: "PRP$", RB: "RB", RBR: "RBR", RBS: "RBS", RP: "RP", TO: "TO",
		UH: "UH", VB: "VB", VBD: "VBD", VBG: "VBG", VBN: "VBN", VBP: "VBP",
		VBZ: "VBZ", WDT: "WDT", WP: "WP", WRB: "WRB", SYM: "SYM", PCT: ".",
		0: "",
	}
	if len(names) != int(unknownTag) {
		t.Fatalf("table names %d tags, the tagset has %d", len(names), unknownTag)
	}
	for tag, name := range names {
		if got := tag.String(); got != name {
			t.Errorf("Tag(%d).String() = %q, want %q", uint8(tag), got, name)
		}
		if got, ok := ParseTag(name); !ok || got != tag {
			t.Errorf("ParseTag(%q) = %d, %v; want %d", name, uint8(got), ok, uint8(tag))
		}
	}
	for _, name := range []string{"XYZ", "jj", "nn", "PRPS", " JJ", "?"} {
		got, ok := ParseTag(name)
		if ok {
			t.Errorf("ParseTag(%q) accepted it as %q", name, got)
		}
		if _, known := names[got]; known {
			t.Errorf("ParseTag(%q) = %q, a tag the tagger emits", name, got)
		}
	}
}

// Benchmark-quality accuracy check on a fixed mini-treebank of sentences in
// the style of the corpora. Requires >= 95% token accuracy.
func TestTagAccuracyOnMiniTreebank(t *testing.T) {
	type example struct {
		text string
		tags []Tag
	}
	examples := []example{
		{"The zoom is responsive and the menu is intuitive.",
			[]Tag{DT, NN, VBZ, JJ, CC, DT, NN, VBZ, JJ, PCT}},
		{"This album offers catchy songs.",
			[]Tag{DT, NN, VBZ, JJ, NNS, PCT}},
		{"The battery drains quickly.",
			[]Tag{DT, NN, VBZ, RB, PCT}},
		{"I was impressed with the flash capabilities.",
			[]Tag{PRP, VBD, VBN, IN, DT, NN, NNS, PCT}},
		{"The company announced strong quarterly earnings.",
			[]Tag{DT, NN, VBD, JJ, JJ, NNS, PCT}},
		{"Analysts praised the new treatment.",
			[]Tag{NNS, VBD, DT, JJ, NN, PCT}},
		{"The picture quality exceeded my expectations.",
			[]Tag{DT, NN, NN, VBD, PRPS, NNS, PCT}},
		{"The first movement is a haunting piece.",
			[]Tag{DT, JJ, NN, VBZ, DT, JJ, NN, PCT}},
	}
	tg := NewTagger()
	tk := tokenize.New()
	total, correct := 0, 0
	for _, ex := range examples {
		tagged := tg.Tag(tk.Tokenize(ex.text))
		if len(tagged) != len(ex.tags) {
			t.Fatalf("%q: got %d tokens, want %d", ex.text, len(tagged), len(ex.tags))
		}
		for i, tt := range tagged {
			total++
			if tt.Tag == ex.tags[i] {
				correct++
			} else {
				t.Logf("%q: %q tagged %s, want %s", ex.text, tt.Text, tt.Tag, ex.tags[i])
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("mini-treebank accuracy %.2f < 0.95", acc)
	}
}

// Property: the tagger emits exactly one tag per token and never an empty
// tag, for arbitrary input.
func TestQuickOneTagPerToken(t *testing.T) {
	tg := NewTagger()
	tk := tokenize.New()
	f := func(s string) bool {
		toks := tk.Tokenize(s)
		tagged := tg.Tag(toks)
		if len(tagged) != len(toks) {
			return false
		}
		for _, tt := range tagged {
			if tt.Tag == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: tagging is deterministic.
func TestQuickTaggingDeterministic(t *testing.T) {
	tg := NewTagger()
	tk := tokenize.New()
	f := func(s string) bool {
		toks := tk.Tokenize(s)
		a := tg.Tag(toks)
		b := tg.Tag(toks)
		for i := range a {
			if a[i].Tag != b[i].Tag {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTagAccuracyOnExtendedTreebank widens the accuracy check to a more
// varied sentence set: passives, chains, questions, comparatives,
// possessives, numbers and multi-clause coordination.
func TestTagAccuracyOnExtendedTreebank(t *testing.T) {
	type example struct {
		text string
		tags []Tag
	}
	examples := []example{
		{"The NR70 does not require an add-on adapter.",
			[]Tag{DT, NNP, VBZ, RB, VB, DT, JJ, NN, PCT}},
		{"Unlike the T70, the NR70 shines.",
			[]Tag{IN, DT, NNP, PCT, DT, NNP, VBZ, PCT}},
		{"The product fails to meet our quality expectations.",
			[]Tag{DT, NN, VBZ, TO, VB, PRPS, NN, NNS, PCT}},
		{"The camera's lens is remarkably sharp.",
			[]Tag{DT, NN, POS, NN, VBZ, RB, JJ, PCT}},
		{"I would buy it again tomorrow.",
			[]Tag{PRP, MD, VB, PRP, RB, RB, PCT}},
		{"The menu doesn't respond quickly.",
			[]Tag{DT, NN, VBZ, RB, VB, RB, PCT}},
		{"Regulators criticized the company for shoddy maintenance.",
			[]Tag{NNS, VBD, DT, NN, IN, JJ, NN, PCT}},
		{"The pipeline leaked crude into the bay.",
			[]Tag{DT, NN, VBD, NN, IN, DT, NN, PCT}},
		{"The zoom is better than the menu.",
			[]Tag{DT, NN, VBZ, JJR, IN, DT, NN, PCT}},
		{"It costs 299 dollars and weighs nine ounces.",
			[]Tag{PRP, VBZ, CD, NNS, CC, VBZ, NN, NNS, PCT}},
		{"The battery never lasts a full day.",
			[]Tag{DT, NN, RB, VBZ, DT, JJ, NN, PCT}},
		{"Critics were appalled by the waiting room.",
			[]Tag{NNS, VBD, VBN, IN, DT, VBG, NN, PCT}},
	}
	tg := NewTagger()
	tk := tokenize.New()
	total, correct := 0, 0
	for _, ex := range examples {
		tagged := tg.Tag(tk.Tokenize(ex.text))
		if len(tagged) != len(ex.tags) {
			t.Fatalf("%q: got %d tokens, want %d (%v)", ex.text, len(tagged), len(ex.tags), tagged)
		}
		for i, tt := range tagged {
			total++
			if tt.Tag == ex.tags[i] {
				correct++
			} else {
				t.Logf("%q: %q tagged %s, want %s", ex.text, tt.Text, tt.Tag, ex.tags[i])
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.92 {
		t.Errorf("extended treebank accuracy %.3f < 0.92", acc)
	}
}
