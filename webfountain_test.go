package webfountain

import (
	"strings"
	"testing"

	"webfountain/internal/metrics"
)

func TestPlatformIngestAndSearch(t *testing.T) {
	p := NewPlatform(PlatformConfig{})
	ids, err := p.Ingest([]Document{
		{Title: "A", Source: "review", Text: "The NR70 takes excellent pictures."},
		{ID: "custom", Title: "B", Source: "web", Text: "The battery life is short."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[1] != "custom" || ids[0] == "" {
		t.Fatalf("ids = %v", ids)
	}
	if p.NumEntities() != 2 {
		t.Errorf("NumEntities = %d", p.NumEntities())
	}
	doc, ok := p.Entity("custom")
	if !ok || doc.Title != "B" {
		t.Errorf("Entity = %+v, %v", doc, ok)
	}
	if got := p.SearchAll("excellent", "pictures"); len(got) != 1 || got[0] != ids[0] {
		t.Errorf("SearchAll = %v", got)
	}
	if got := p.SearchPhrase("battery", "life"); len(got) != 1 || got[0] != "custom" {
		t.Errorf("SearchPhrase = %v", got)
	}
}

func TestMinerAdHocTextEntityMode(t *testing.T) {
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	facts := m.AnalyzeText("The NR70 takes excellent pictures. The CLIE disappointed every reviewer.")
	bysubj := map[string]Polarity{}
	for _, f := range facts {
		bysubj[f.Subject] = f.Polarity
	}
	if bysubj["NR70"] != Positive {
		t.Errorf("NR70 = %v (%+v)", bysubj["NR70"], facts)
	}
	if bysubj["CLIE"] != Negative {
		t.Errorf("CLIE = %v (%+v)", bysubj["CLIE"], facts)
	}
}

// TestStageHistogramsOnePerDocument: every stage histogram takes one
// sample per analyzed document, however many sentences reach the stage,
// in both modes.
func TestStageHistogramsOnePerDocument(t *testing.T) {
	text := "The NR70 takes excellent pictures. The CLIE disappointed every reviewer. The NR70 has a great screen."
	for _, c := range []struct {
		cfg    MinerConfig
		stages []*metrics.Histogram
	}{
		{MinerConfig{}, []*metrics.Histogram{stageTokenize, stageSpot, stagePOS, stageChunk, stageSentiment, docPipelineNs}},
		{MinerConfig{Subjects: []Subject{{Canonical: "NR70"}, {Canonical: "CLIE", OnTopic: []string{"reviewer"}}}},
			[]*metrics.Histogram{stageTokenize, stageSpot, stageDisambig, stageSentiment, docPipelineNs}},
	} {
		m, err := NewSentimentMiner(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]int64, len(c.stages))
		for i, h := range c.stages {
			before[i] = h.Count()
		}
		if facts := m.AnalyzeText(text); len(facts) < 2 {
			t.Fatalf("%d facts from three sentiment-bearing sentences", len(facts))
		}
		for i, h := range c.stages {
			if got := h.Count() - before[i]; got != 1 {
				t.Errorf("subjects mode %v: stage %d took %d samples for one document, want 1", len(c.cfg.Subjects) > 0, i, got)
			}
		}
	}
}

func TestMinerPredefinedSubjectsMode(t *testing.T) {
	m, err := NewSentimentMiner(MinerConfig{
		Subjects: []Subject{
			{Canonical: "NR70"},
			{Canonical: "T series", Terms: []string{"T series", "T series CLIEs"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	facts := m.AnalyzeText("Unlike the T series CLIEs, the NR70 does not require an adapter.")
	bysubj := map[string]Polarity{}
	for _, f := range facts {
		bysubj[f.Subject] = f.Polarity
	}
	if bysubj["nr70"] != Positive {
		t.Errorf("nr70 = %v (%+v)", bysubj["nr70"], facts)
	}
	if bysubj["t series"] != Negative {
		t.Errorf("t series = %v (%+v)", bysubj["t series"], facts)
	}
}

func TestMinerDisambiguationFiltersOffTopicSpots(t *testing.T) {
	m, err := NewSentimentMiner(MinerConfig{
		Subjects: []Subject{{
			Canonical: "SUN",
			OnTopic:   []string{"server", "java", "solaris", "workstation"},
			OffTopic:  []string{"sunday", "sunshine", "beach", "sky"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Off-topic use of SUN: beautiful weather, not the company.
	facts := m.AnalyzeText("The SUN was gorgeous over the beach on sunday under a clear sky.")
	if len(facts) != 0 {
		t.Errorf("off-topic SUN produced facts: %+v", facts)
	}
	// On-topic use.
	facts = m.AnalyzeText("The SUN server line is excellent, and its solaris and java workstation business grew.")
	found := false
	for _, f := range facts {
		if f.Subject == "sun" && f.Polarity == Positive {
			found = true
		}
	}
	if !found {
		t.Errorf("on-topic SUN missed: %+v", facts)
	}
}

func TestMinerRunBuildsIndexAndAnnotations(t *testing.T) {
	p := NewPlatform(PlatformConfig{Shards: 4})
	_, err := p.Ingest([]Document{
		{ID: "d1", Text: "The Aurora album is gorgeous. Critics praised Aurora."},
		{ID: "d2", Text: "The Tempest fails to impress. Tempest sounded bland."},
		{ID: "d3", Text: "Nothing notable happened today."},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	facts, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) == 0 {
		t.Fatal("no facts extracted")
	}
	pos, neg := m.Counts("Aurora")
	if pos < 1 || neg != 0 {
		t.Errorf("Aurora counts = %d/%d (%+v)", pos, neg, m.Query("Aurora"))
	}
	pos, neg = m.Counts("Tempest")
	if neg < 1 {
		t.Errorf("Tempest counts = %d/%d", pos, neg)
	}
	if subs := m.Subjects(); len(subs) < 2 {
		t.Errorf("Subjects = %v", subs)
	}
	// Facts are sorted by (DocID, Sentence, Subject).
	for i := 1; i < len(facts); i++ {
		a, b := facts[i-1], facts[i]
		if a.DocID > b.DocID {
			t.Fatalf("facts unsorted: %+v before %+v", a, b)
		}
	}
	// Query returns snippets.
	entries := m.Query("aurora")
	if len(entries) == 0 || entries[0].Snippet == "" {
		t.Errorf("Query = %+v", entries)
	}
}

func TestMinerExtraResources(t *testing.T) {
	m, err := NewSentimentMiner(MinerConfig{
		ExtraLexicon:  strings.NewReader(`"zorptastic" JJ +`),
		ExtraPatterns: strings.NewReader("radiate CP SP"),
	})
	if err != nil {
		t.Fatal(err)
	}
	facts := m.AnalyzeText("The Aurora is zorptastic.")
	if len(facts) == 0 || facts[0].Polarity != Positive {
		t.Errorf("extra lexicon unused: %+v", facts)
	}
}

func TestMinerExtraResourceErrors(t *testing.T) {
	if _, err := NewSentimentMiner(MinerConfig{ExtraLexicon: strings.NewReader("broken")}); err == nil {
		t.Error("bad lexicon should fail")
	}
	if _, err := NewSentimentMiner(MinerConfig{ExtraPatterns: strings.NewReader("a b")}); err == nil {
		t.Error("bad patterns should fail")
	}
}

func TestMinerContextWindowFallback(t *testing.T) {
	m, err := NewSentimentMiner(MinerConfig{
		Subjects:      []Subject{{Canonical: "NR70"}},
		ContextWindow: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The focus sentence with the spot is neutral; the neighbour carries
	// the sentiment under the same head noun.
	facts := m.AnalyzeText("The NR70 shipped in April. The NR70 takes gorgeous pictures.")
	if len(facts) < 2 {
		t.Errorf("window fallback inactive: %+v", facts)
	}
}

func TestExtractFeaturesFacade(t *testing.T) {
	on := []string{
		"The battery life is excellent. The zoom works well.",
		"The battery life disappointed me. The zoom is responsive.",
		"The zoom shines. The battery life lasts all day.",
		"The battery life is short. The zoom is superb.",
	}
	off := []string{
		"The weather was nice. We walked along the shore.",
		"The meeting ran long. The agenda was packed.",
		"The weather turned cold. The traffic was terrible.",
	}
	feats := ExtractFeatures(on, off, FeatureConfig{Confidence: 0.95})
	if len(feats) == 0 {
		t.Fatal("no features")
	}
	names := map[string]bool{}
	for _, f := range feats {
		names[f.Term] = true
		if f.Score <= 0 {
			t.Errorf("non-positive score: %+v", f)
		}
	}
	if !names["battery life"] || !names["zoom"] {
		t.Errorf("features = %+v", feats)
	}
}

func TestPolarityReexport(t *testing.T) {
	if Positive.String() != "+" || Negative.String() != "-" || Neutral.String() != "0" {
		t.Error("polarity re-export broken")
	}
}

func TestPlatformSnapshotRestore(t *testing.T) {
	p := NewPlatform(PlatformConfig{Shards: 4})
	if _, err := p.Ingest([]Document{
		{ID: "a", Text: "The NR70 takes excellent pictures.", Date: "2004-02-01"},
		{ID: "b", Text: "The battery life is short.", Links: []string{"a"}},
	}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewPlatform(PlatformConfig{Shards: 2})
	n, err := fresh.Restore(strings.NewReader(buf.String()))
	if err != nil || n != 2 {
		t.Fatalf("restored %d, %v", n, err)
	}
	// Restored documents are searchable (re-indexed).
	if got := fresh.SearchPhrase("battery", "life"); len(got) != 1 || got[0] != "b" {
		t.Errorf("search after restore = %v", got)
	}
	doc, ok := fresh.Entity("b")
	if !ok || len(doc.Links) != 1 || doc.Links[0] != "a" {
		t.Errorf("entity after restore = %+v", doc)
	}
	if _, err := fresh.Restore(strings.NewReader("<broken")); err == nil {
		t.Error("bad snapshot should fail")
	}
}

func TestPlatformDelete(t *testing.T) {
	p := NewPlatform(PlatformConfig{Shards: 2})
	if _, err := p.Ingest([]Document{{ID: "x", Text: "unique snowflake words"}}); err != nil {
		t.Fatal(err)
	}
	p.Delete("x")
	if _, ok := p.Entity("x"); ok {
		t.Error("entity survives delete")
	}
	if got := p.SearchAll("snowflake"); len(got) != 0 {
		t.Errorf("index survives delete: %v", got)
	}
	p.Delete("missing") // no-op
}
