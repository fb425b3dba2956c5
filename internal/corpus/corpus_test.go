package corpus

import (
	"strings"
	"testing"

	"webfountain/internal/lexicon"
)

func TestGeneratorsDeterministic(t *testing.T) {
	a := DigitalCameraReviews(42, 20)
	b := DigitalCameraReviews(42, 20)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Text() != b[i].Text() {
			t.Fatalf("doc %d differs between runs", i)
		}
	}
	c := DigitalCameraReviews(43, 20)
	same := 0
	for i := range a {
		if a[i].Text() == c[i].Text() {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical corpus")
	}
}

func TestCameraCorpusShape(t *testing.T) {
	docs := DigitalCameraReviews(1, 100)
	st := Measure(docs, CameraProducts, CameraFeatures)
	if st.Docs != 100 {
		t.Fatalf("docs = %d", st.Docs)
	}
	if st.Sentences < 100*12 {
		t.Errorf("sentences = %d, want >= 12/doc", st.Sentences)
	}
	// Neutral labels must dominate (the paper: "the majority of the test
	// cases have neutral sentiment").
	if st.NeutralLabels <= st.PolarLabels {
		t.Errorf("neutral (%d) should outnumber polar (%d)", st.NeutralLabels, st.PolarLabels)
	}
	// Detectable share of polar labels bounds SM recall; the paper's
	// recall is 56%, so the detectable share must sit near 55-75%.
	share := float64(st.DetectablePolar) / float64(st.PolarLabels)
	if share < 0.5 || share > 0.8 {
		t.Errorf("detectable polar share = %.2f, want 0.5-0.8", share)
	}
	// Table 3: feature references must dwarf product references.
	ratio := float64(st.FeatureReferences) / float64(st.ProductReferences)
	if ratio < 4 {
		t.Errorf("feature/product reference ratio = %.1f, want >= 4", ratio)
	}
}

func TestMusicCorpusUsesMusicVocabulary(t *testing.T) {
	docs := MusicReviews(2, 30)
	joined := ""
	for _, d := range docs {
		joined += d.Text() + " "
	}
	for _, w := range []string{"movement", "chorus", "track"} {
		if !strings.Contains(joined, w) {
			t.Errorf("music corpus missing %q", w)
		}
	}
	for _, w := range []string{"tripod", "photographer", "viewfinder"} {
		if strings.Contains(joined, w) {
			t.Errorf("camera vocabulary leaked into music corpus: %q", w)
		}
	}
}

func TestReviewDocLabelsBalanced(t *testing.T) {
	docs := DigitalCameraReviews(3, 200)
	pos := 0
	for _, d := range docs {
		if d.DocLabel == lexicon.Positive {
			pos++
		} else if d.DocLabel != lexicon.Negative {
			t.Fatalf("review doc without verdict: %+v", d.ID)
		}
	}
	if pos < 80 || pos > 140 {
		t.Errorf("positive docs = %d/200, want roughly balanced", pos)
	}
}

func TestGoldForLookup(t *testing.T) {
	docs := DigitalCameraReviews(4, 1)
	d := docs[0]
	found := false
	for i, s := range d.Sentences {
		for _, l := range s.Labels {
			pol, ok := d.GoldFor(i, strings.ToUpper(l.Subject))
			if !ok || pol != l.Polarity {
				t.Errorf("GoldFor(%d, %q) = %v, %v; want %v", i, l.Subject, pol, ok, l.Polarity)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no labels generated")
	}
	if _, ok := d.GoldFor(0, "unlabeled-subject"); ok {
		t.Error("unlabeled subject reported as labeled")
	}
	if _, ok := d.GoldFor(-1, "camera"); ok {
		t.Error("out-of-range sentence index")
	}
}

func TestGeneralWebCorpusShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		docs []Document
		subs []string
	}{
		{"petroleum", PetroleumWeb(5, 100), PetroleumCompanies},
		{"pharma", PharmaWeb(6, 100), PharmaCompanies},
		{"news", PetroleumNews(7, 100), PetroleumCompanies},
	} {
		st := Measure(tc.docs, tc.subs, nil)
		if st.Docs != 100 {
			t.Fatalf("%s: docs = %d", tc.name, st.Docs)
		}
		// Neutral (I-class + plain neutral) must outnumber polar so that
		// an always-polar classifier collapses (Table 5's 38%).
		if st.NeutralLabels <= st.PolarLabels {
			t.Errorf("%s: neutral (%d) must outnumber polar (%d)", tc.name, st.NeutralLabels, st.PolarLabels)
		}
		// But sentiment must exist.
		if st.PolarLabels == 0 {
			t.Errorf("%s: no polar labels", tc.name)
		}
		// Web/news polar labels are mostly detectable (web sentiment in
		// the paper's corpora is plain newsroom vocabulary, not idiom).
		share := float64(st.DetectablePolar) / float64(st.PolarLabels)
		if share < 0.6 {
			t.Errorf("%s: detectable share = %.2f", tc.name, share)
		}
	}
}

func TestDistractorsAvoidDomainSubjects(t *testing.T) {
	docs := Distractors(8, 100)
	all := ""
	for _, d := range docs {
		if d.Domain != "none" {
			t.Fatalf("distractor domain = %q", d.Domain)
		}
		all += d.Text() + " "
	}
	for _, s := range append(append([]string{}, CameraProducts...), PetroleumCompanies...) {
		if strings.Contains(all, s) {
			t.Errorf("distractor mentions subject %q", s)
		}
	}
}

func TestFeatureQualityProfile(t *testing.T) {
	// Deterministic, bounded, and non-constant across products.
	seen := map[float64]bool{}
	for p := 0; p < 10; p++ {
		q := FeatureQuality(p, 3)
		if q < 0.15 || q > 0.85 {
			t.Errorf("quality out of range: %v", q)
		}
		if q != FeatureQuality(p, 3) {
			t.Error("profile not deterministic")
		}
		seen[q] = true
	}
	if len(seen) < 5 {
		t.Errorf("profiles too uniform: %v", seen)
	}
}

func TestSynonymSets(t *testing.T) {
	sets := SynonymSets([]string{"Canon", "battery life"})
	if len(sets) != 2 || sets[0].ID != "canon" || sets[1].Terms[0] != "battery life" {
		t.Errorf("sets = %+v", sets)
	}
}

func TestDocumentTextJoins(t *testing.T) {
	d := Document{Sentences: []Sentence{{Text: "A."}, {Text: "B."}}}
	if d.Text() != "A. B." {
		t.Errorf("Text = %q", d.Text())
	}
}

func TestBulletinBoardCorpus(t *testing.T) {
	docs := BulletinBoard(9, 120)
	if len(docs) != 120 {
		t.Fatalf("docs = %d", len(docs))
	}
	polar, neutral := 0, 0
	for _, d := range docs {
		if d.Source != "bboard" || len(d.Sentences) != 1 || len(d.Sentences[0].Labels) != 1 {
			t.Fatalf("bad post: %+v", d)
		}
		if d.Sentences[0].Labels[0].Polarity == lexicon.Neutral {
			neutral++
		} else {
			polar++
		}
	}
	if polar == 0 || neutral == 0 {
		t.Errorf("mix = %d polar / %d neutral", polar, neutral)
	}
	// Deterministic.
	again := BulletinBoard(9, 120)
	for i := range docs {
		if docs[i].Text() != again[i].Text() {
			t.Fatal("not deterministic")
		}
	}
}

func TestNamed(t *testing.T) {
	for _, c := range []struct {
		name     string
		gen      func(int64, int) []Document
		subjects []string
	}{
		{"camera", DigitalCameraReviews, append(append([]string{}, CameraProducts...), CameraFeatures...)},
		{"music", MusicReviews, append(append([]string{}, MusicAlbums...), MusicFeatures...)},
		{"petroleum", PetroleumWeb, PetroleumCompanies},
		{"pharma", PharmaWeb, PharmaCompanies},
		{"news", PetroleumNews, PetroleumCompanies},
		{"bboard", BulletinBoard, CameraProducts},
	} {
		gen, subjects, err := Named(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, want := gen(3, 4), c.gen(3, 4)
		if len(got) != 4 || len(want) != 4 {
			t.Fatalf("%s: %d documents, want 4", c.name, len(got))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Text() != want[i].Text() {
				t.Errorf("%s: document %d is %s, want %s", c.name, i, got[i].ID, want[i].ID)
			}
		}
		if strings.Join(subjects, "|") != strings.Join(c.subjects, "|") {
			t.Errorf("%s: subjects %v, want %v", c.name, subjects, c.subjects)
		}
	}
	if gen, subjects, err := Named("bogus"); err == nil || gen != nil || subjects != nil {
		t.Error("an unknown corpus name must fail")
	}
}
