package sentiment

import (
	"strings"
	"testing"
	"testing/quick"

	"webfountain/internal/chunk"
	"webfountain/internal/lexicon"
	"webfountain/internal/patterns"
	"webfountain/internal/pos"
	"webfountain/internal/tokenize"
)

var (
	tk = tokenize.New()
	tg = pos.NewTagger()
)

func analyze(t *testing.T, s string) []Assignment {
	t.Helper()
	a := New(nil, nil)
	return a.Analyze(tg.Tag(tk.Tokenize(s)))
}

// one asserts exactly one assignment with the given target substring and
// polarity.
func one(t *testing.T, s, targetSub string, pol lexicon.Polarity) Assignment {
	t.Helper()
	as := analyze(t, s)
	if len(as) != 1 {
		t.Fatalf("%q: got %d assignments %+v, want 1", s, len(as), as)
	}
	if !strings.Contains(strings.ToLower(as[0].Target), strings.ToLower(targetSub)) {
		t.Errorf("%q: target %q does not contain %q", s, as[0].Target, targetSub)
	}
	if as[0].Polarity != pol {
		t.Errorf("%q: polarity %v, want %v", s, as[0].Polarity, pol)
	}
	return as[0]
}

func TestPaperExampleImpressPassive(t *testing.T) {
	a := one(t, "I am impressed by the flash capabilities.", "flash capabilities", lexicon.Positive)
	if !strings.Contains(a.Pattern, "PP") {
		t.Errorf("pattern = %q, want the PP(by;with) pattern", a.Pattern)
	}
}

func TestPaperExampleCopula(t *testing.T) {
	a := one(t, "The colors are vibrant.", "colors", lexicon.Positive)
	if a.Pattern != "be CP SP" {
		t.Errorf("pattern = %q", a.Pattern)
	}
}

func TestPaperExampleOffer(t *testing.T) {
	one(t, "The company offers high quality products.", "company", lexicon.Positive)
	one(t, "The company offers mediocre services.", "company", lexicon.Negative)
}

func TestPaperExampleTakeOPSP(t *testing.T) {
	a := one(t, "This camera takes excellent pictures.", "camera", lexicon.Positive)
	if a.Pattern != "take OP SP" {
		t.Errorf("pattern = %q", a.Pattern)
	}
}

func TestNegationReversesPatternSentiment(t *testing.T) {
	one(t, "This camera does not take excellent pictures.", "camera", lexicon.Negative)
	one(t, "The product fails to meet our quality expectations.", "product", lexicon.Negative)
	one(t, "The flash never fails.", "flash", lexicon.Positive)
}

func TestNegationInsidePhrase(t *testing.T) {
	// "no good reason" style in-phrase negation.
	as := analyze(t, "The camera offers no useful features.")
	if len(as) != 1 || as[0].Polarity != lexicon.Negative {
		t.Errorf("got %+v, want camera negative", as)
	}
}

func TestFixedVerbTowardSubject(t *testing.T) {
	one(t, "The battery drains quickly.", "battery", lexicon.Negative)
	one(t, "The software crashed twice.", "software", lexicon.Negative)
	one(t, "The zoom excels.", "zoom", lexicon.Positive)
}

func TestFixedVerbTowardObject(t *testing.T) {
	one(t, "I love this camera.", "camera", lexicon.Positive)
	one(t, "We hate the menu.", "menu", lexicon.Negative)
	one(t, "Critics praised the album.", "album", lexicon.Positive)
}

func TestUnlikeContrastRule(t *testing.T) {
	as := analyze(t, "Unlike the T70, the NR70 does not require an adapter.")
	if len(as) != 2 {
		t.Fatalf("got %d assignments %+v, want 2", len(as), as)
	}
	byTarget := map[string]lexicon.Polarity{}
	for _, a := range as {
		byTarget[a.Target] = a.Polarity
	}
	if byTarget["NR70"] != lexicon.Positive {
		t.Errorf("NR70 = %v, want + (%+v)", byTarget["NR70"], as)
	}
	if byTarget["T70"] != lexicon.Negative {
		t.Errorf("T70 = %v, want - (%+v)", byTarget["T70"], as)
	}
}

func TestMixedSentenceBothPolarities(t *testing.T) {
	// Modeled after the paper's NR70 example sentence 3: one positive and
	// one negative aspect in a coordinated sentence.
	as := analyze(t, "The NR70 takes gorgeous pictures but the battery is awful.")
	if len(as) != 2 {
		t.Fatalf("got %+v, want 2 assignments", as)
	}
	if as[0].Polarity != lexicon.Positive || as[1].Polarity != lexicon.Negative {
		t.Errorf("polarities = %v, %v", as[0].Polarity, as[1].Polarity)
	}
}

func TestNeutralSentenceNoAssignment(t *testing.T) {
	for _, s := range []string{
		"The camera has a three inch screen.",
		"The NR70 series is equipped with memory expansion.",
		"The company operates twelve refineries.",
		"The album contains ten tracks.",
	} {
		if as := analyze(t, s); len(as) != 0 {
			t.Errorf("%q: expected no assignment, got %+v", s, as)
		}
	}
}

func TestUnknownSentimentVerbNoAssignment(t *testing.T) {
	// Idiomatic sentiment outside lexicon/pattern coverage: recall gap by
	// design.
	if as := analyze(t, "This camera knocked my socks off."); len(as) != 0 {
		t.Errorf("expected recall gap, got %+v", as)
	}
}

func TestLinkingVerbComplement(t *testing.T) {
	one(t, "The chorus sounds bland.", "chorus", lexicon.Negative)
	one(t, "The lens feels sturdy.", "lens", lexicon.Positive)
}

func TestNominalComplement(t *testing.T) {
	one(t, "The NR70 is a great product.", "NR70", lexicon.Positive)
	one(t, "This album is a complete disaster.", "album", lexicon.Negative)
}

func TestOptionsDisableNegation(t *testing.T) {
	a := NewWithOptions(nil, nil, Options{DisableNegation: true})
	as := a.Analyze(tg.Tag(tk.Tokenize("This camera does not take excellent pictures.")))
	if len(as) != 1 || as[0].Polarity != lexicon.Positive {
		t.Errorf("with negation disabled want raw positive, got %+v", as)
	}
}

func TestOptionsDisableTransVerbs(t *testing.T) {
	a := NewWithOptions(nil, nil, Options{DisableTransVerbs: true})
	as := a.Analyze(tg.Tag(tk.Tokenize("The colors are vibrant.")))
	if len(as) != 0 {
		t.Errorf("trans verbs disabled should drop copula transfer, got %+v", as)
	}
}

func TestOptionsDisableContrast(t *testing.T) {
	a := NewWithOptions(nil, nil, Options{DisableContrast: true})
	as := a.Analyze(tg.Tag(tk.Tokenize("Unlike the T70, the NR70 does not require an adapter.")))
	if len(as) != 1 {
		t.Errorf("contrast disabled should yield one assignment, got %+v", as)
	}
}

func TestPhrasePolarityMixedNetsOut(t *testing.T) {
	a := New(nil, nil)
	mk := func(s string) chunk.Phrase {
		ts := tg.Tag(tk.Tokenize(s))
		return chunk.Phrase{Type: chunk.NP, Tokens: ts, Start: 0, End: len(ts), Head: len(ts) - 1}
	}
	if pol := a.PhrasePolarity(mk("an excellent but noisy lens")); pol != lexicon.Neutral {
		t.Errorf("mixed phrase polarity = %v, want neutral", pol)
	}
	if pol := a.PhrasePolarity(mk("excellent gorgeous noisy lens")); pol != lexicon.Positive {
		t.Errorf("2+ vs 1- = %v, want positive", pol)
	}
	if pol := a.PhrasePolarity(mk("no useful features")); pol != lexicon.Negative {
		t.Errorf("in-phrase negation = %v, want negative", pol)
	}
}

func TestTargetTextStripsDeterminers(t *testing.T) {
	as := analyze(t, "The battery life is excellent.")
	if len(as) != 1 || as[0].Target != "battery life" {
		t.Errorf("target = %+v, want 'battery life'", as)
	}
}

func TestForSpanFilters(t *testing.T) {
	toks := tg.Tag(tk.Tokenize("The zoom is responsive and the menu is confusing."))
	a := New(nil, nil)
	as := a.Analyze(toks)
	if len(as) != 2 {
		t.Fatalf("want 2 assignments, got %+v", as)
	}
	// Token index of "menu".
	menuIdx := -1
	for i, tok := range toks {
		if tok.Text == "menu" {
			menuIdx = i
		}
	}
	hits := ForSpan(as, menuIdx, menuIdx+1)
	if len(hits) != 1 || hits[0].Polarity != lexicon.Negative {
		t.Errorf("ForSpan(menu) = %+v", hits)
	}
}

func TestNetCombination(t *testing.T) {
	plus := Assignment{Polarity: lexicon.Positive}
	minus := Assignment{Polarity: lexicon.Negative}
	if Net([]Assignment{plus, plus, minus}) != lexicon.Positive {
		t.Error("2+ 1- should be positive")
	}
	if Net([]Assignment{plus, minus}) != lexicon.Neutral {
		t.Error("tie should be neutral")
	}
	if Net(nil) != lexicon.Neutral {
		t.Error("empty should be neutral")
	}
}

func TestSubjectSentimentContext(t *testing.T) {
	text := "I bought the NR70 last month. The NR70 takes gorgeous pictures."
	sents := tk.Sentences(text)
	a := New(nil, nil)
	// Subject = NR70 in the second sentence (focus 1).
	var subjIdx int
	for i, tok := range sents[1].Tokens {
		if tok.Text == "NR70" {
			subjIdx = i
		}
	}
	ctx := BuildContext(sents, 1, 0, subjIdx, subjIdx+1)
	hits, ok := a.SubjectSentiment(tg, ctx)
	if !ok || len(hits) == 0 || hits[0].Polarity != lexicon.Positive {
		t.Errorf("SubjectSentiment = %+v, %v", hits, ok)
	}
}

func TestSubjectSentimentWindowFallback(t *testing.T) {
	text := "The NR70 shipped in April. The NR70 takes gorgeous pictures."
	sents := tk.Sentences(text)
	a := New(nil, nil)
	var subjIdx int
	for i, tok := range sents[0].Tokens {
		if tok.Text == "NR70" {
			subjIdx = i
		}
	}
	// Focus on the neutral first sentence with a +/-1 sentence window: the
	// fallback picks up the assignment from the neighbour whose target
	// shares the head noun.
	ctx := BuildContext(sents, 0, 1, subjIdx, subjIdx+1)
	hits, ok := a.SubjectSentiment(tg, ctx)
	if !ok || len(hits) == 0 || hits[0].Polarity != lexicon.Positive {
		t.Errorf("window fallback = %+v, %v", hits, ok)
	}
	// Without the window there is no sentiment.
	ctx0 := BuildContext(sents, 0, 0, subjIdx, subjIdx+1)
	if _, ok := a.SubjectSentiment(tg, ctx0); ok {
		t.Error("window 0 should find nothing in the neutral sentence")
	}
}

func TestBuildContextClampsWindow(t *testing.T) {
	sents := tk.Sentences("One. Two. Three.")
	ctx := BuildContext(sents, 0, 5, 0, 1)
	if len(ctx.Sentences) != 3 || ctx.Focus != 0 {
		t.Errorf("ctx = %+v", ctx)
	}
	ctx = BuildContext(sents, 2, 1, 0, 1)
	if len(ctx.Sentences) != 2 || ctx.Focus != 1 {
		t.Errorf("ctx = %+v", ctx)
	}
}

func TestCustomLexiconAndPatterns(t *testing.T) {
	lx := lexicon.New()
	// POS 0 is the wildcard: it matches any tag, which is what a user
	// wants for invented vocabulary the tagger cannot classify.
	lx.Add(lexicon.Entry{Term: "zorpy", POS: 0, Pol: lexicon.Positive})
	db := patterns.NewDB()
	if err := db.Load(strings.NewReader("be CP SP")); err != nil {
		t.Fatal(err)
	}
	a := New(lx, db)
	as := a.Analyze(tg.Tag(tk.Tokenize("The gizmo is zorpy.")))
	if len(as) != 1 || as[0].Polarity != lexicon.Positive {
		t.Errorf("custom resources: %+v", as)
	}
}

// Property: analyzer output is deterministic and all phrases well-formed.
func TestQuickAnalyzeTotal(t *testing.T) {
	a := New(nil, nil)
	f := func(s string) bool {
		ts := tg.Tag(tk.Tokenize(s))
		as1 := a.Analyze(ts)
		as2 := a.Analyze(ts)
		if len(as1) != len(as2) {
			return false
		}
		for i := range as1 {
			if as1[i].Target != as2[i].Target || as1[i].Polarity != as2[i].Polarity {
				return false
			}
			if as1[i].Polarity == lexicon.Neutral {
				return false // assignments are never neutral
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComparativeThanRule(t *testing.T) {
	as := analyze(t, "The NR70 is better than the T600.")
	byTarget := map[string]lexicon.Polarity{}
	for _, a := range as {
		byTarget[a.Target] = a.Polarity
	}
	if byTarget["NR70"] != lexicon.Positive {
		t.Errorf("NR70 = %v (%+v)", byTarget["NR70"], as)
	}
	if byTarget["T600"] != lexicon.Negative {
		t.Errorf("T600 = %v (%+v)", byTarget["T600"], as)
	}

	as = analyze(t, "The menu is worse than the old firmware.")
	byTarget = map[string]lexicon.Polarity{}
	for _, a := range as {
		byTarget[a.Target] = a.Polarity
	}
	if byTarget["menu"] != lexicon.Negative {
		t.Errorf("menu = %v (%+v)", byTarget["menu"], as)
	}
	if byTarget["old firmware"] != lexicon.Positive {
		t.Errorf("old firmware = %v (%+v)", byTarget["old firmware"], as)
	}
}

func TestComparativeRegularForms(t *testing.T) {
	one(t, "The viewfinder is brighter.", "viewfinder", lexicon.Positive)
	one(t, "The playback is choppier.", "playback", lexicon.Negative)
}

func TestComparativeDisabledWithContrastOption(t *testing.T) {
	a := NewWithOptions(nil, nil, Options{DisableContrast: true})
	as := a.Analyze(tg.Tag(tk.Tokenize("The NR70 is better than the T600.")))
	for _, asg := range as {
		if asg.Pattern == "comparative(than)" {
			t.Errorf("comparative rule fired while disabled: %+v", asg)
		}
	}
}
