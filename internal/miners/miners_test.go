package miners

import (
	"fmt"
	"strings"
	"testing"

	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

func put(t *testing.T, st *store.Store, e *store.Entity) {
	t.Helper()
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
}

// mineGeo attaches g's annotations to every stored entity.
func mineGeo(t *testing.T, st *store.Store, g *GeoContext) {
	t.Helper()
	for _, id := range st.IDs() {
		e, _ := st.Get(id)
		if _, err := st.Annotate(id, g.Process(e)); err != nil {
			t.Fatal(err)
		}
	}
}

// --- GeoContext ---

func TestGeoContextSpotsPlacesAndRegion(t *testing.T) {
	st := store.New(1)
	put(t, st, &store.Entity{ID: "d1", Text: "The refinery in Texas ships crude to Japan. Texas output rose."})
	mineGeo(t, st, NewGeoContext())
	e, _ := st.Get("d1")
	places := Places(e)
	if len(places) != 2 || places[0] != "japan" || places[1] != "texas" {
		t.Errorf("places = %v", places)
	}
	if got := Region(e); got != "north-america" {
		t.Errorf("region = %q (texas twice vs japan once)", got)
	}
}

func TestGeoContextVariants(t *testing.T) {
	st := store.New(1)
	put(t, st, &store.Entity{ID: "d1", Text: "Offices in the U.S. and Holland opened."})
	mineGeo(t, st, NewGeoContext())
	e, _ := st.Get("d1")
	places := Places(e)
	want := map[string]bool{"united states": true, "netherlands": true}
	for _, p := range places {
		if !want[p] {
			t.Errorf("unexpected place %q", p)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Errorf("missing places: %v (got %v)", want, places)
	}
}

func TestGeoContextNoPlaces(t *testing.T) {
	g := NewGeoContext()
	if anns := g.Process(&store.Entity{ID: "x", Text: "The battery life is excellent."}); len(anns) != 0 {
		t.Errorf("anns = %v", anns)
	}
}

// --- DuplicateDetector ---

func TestDedupFindsNearDuplicates(t *testing.T) {
	st := store.New(2)
	base := "The quick brown fox jumps over the lazy dog near the quiet river bank every single morning before dawn breaks over the eastern hills."
	put(t, st, &store.Entity{ID: "a1", Text: base})
	put(t, st, &store.Entity{ID: "a2", Text: base + " Extra sentence."})
	put(t, st, &store.Entity{ID: "b1", Text: "Completely different content about camera reviews and battery life measurements across fifteen products tested in our lab this year."})
	d := &DuplicateDetector{Threshold: 0.6}
	if err := d.Run(st); err != nil {
		t.Fatal(err)
	}
	cl := d.Clusters()
	if len(cl) != 1 {
		t.Fatalf("clusters = %v", cl)
	}
	if len(cl[0]) != 2 || cl[0][0] != "a1" || cl[0][1] != "a2" {
		t.Errorf("cluster = %v", cl[0])
	}
}

func TestDedupExactDuplicatesAlwaysMatch(t *testing.T) {
	st := store.New(2)
	text := "One two three four five six seven eight nine ten eleven twelve thirteen fourteen."
	put(t, st, &store.Entity{ID: "x", Text: text})
	put(t, st, &store.Entity{ID: "y", Text: text})
	d := &DuplicateDetector{}
	if err := d.Run(st); err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters()) != 1 {
		t.Errorf("clusters = %v", d.Clusters())
	}
}

func TestDedupShortDocsSkipped(t *testing.T) {
	st := store.New(1)
	put(t, st, &store.Entity{ID: "s1", Text: "too short"})
	put(t, st, &store.Entity{ID: "s2", Text: "too short"})
	d := &DuplicateDetector{}
	if err := d.Run(st); err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters()) != 0 {
		t.Errorf("short docs should not cluster: %v", d.Clusters())
	}
}

func TestEstimateJaccard(t *testing.T) {
	a := []uint32{1, 2, 3, 4}
	b := []uint32{1, 2, 9, 9}
	if got := estimateJaccard(a, b); got != 0.5 {
		t.Errorf("jaccard = %v", got)
	}
	if got := estimateJaccard(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// --- PageRank ---

func TestPageRankFavorsLinkedDocuments(t *testing.T) {
	st := store.New(2)
	// hub <- a, b, c; chain c -> b -> hub.
	put(t, st, &store.Entity{ID: "hub", Text: "t"})
	put(t, st, &store.Entity{ID: "a", Text: "t", Links: []string{"hub"}})
	put(t, st, &store.Entity{ID: "b", Text: "t", Links: []string{"hub"}})
	put(t, st, &store.Entity{ID: "c", Text: "t", Links: []string{"hub", "b"}})
	pr := &PageRank{}
	if err := pr.Run(st); err != nil {
		t.Fatal(err)
	}
	if pr.Score("hub") <= pr.Score("a") {
		t.Errorf("hub %v should outrank leaf %v", pr.Score("hub"), pr.Score("a"))
	}
	if pr.Score("b") <= pr.Score("a") {
		t.Errorf("b (one inlink) %v should outrank a (none) %v", pr.Score("b"), pr.Score("a"))
	}
	top := pr.Top(2)
	if len(top) != 2 || top[0].ID != "hub" {
		t.Errorf("top = %v", top)
	}
	if pr.Iterations() == 0 {
		t.Error("no iterations recorded")
	}
}

func TestPageRankScoresSumToOne(t *testing.T) {
	st := store.New(2)
	for i := 0; i < 10; i++ {
		e := &store.Entity{ID: fmt.Sprintf("d%d", i), Text: "t"}
		if i > 0 {
			e.Links = []string{fmt.Sprintf("d%d", i-1)}
		}
		put(t, st, e)
	}
	pr := &PageRank{}
	if err := pr.Run(st); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range pr.Top(100) {
		sum += r.Score
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("scores sum to %v, want 1", sum)
	}
}

func TestPageRankIgnoresUnknownLinks(t *testing.T) {
	st := store.New(1)
	put(t, st, &store.Entity{ID: "a", Text: "t", Links: []string{"missing", "a"}})
	pr := &PageRank{}
	if err := pr.Run(st); err != nil {
		t.Fatal(err)
	}
	if s := pr.Score("a"); s <= 0 {
		t.Errorf("score = %v", s)
	}
}

func TestPageRankEmptyStore(t *testing.T) {
	pr := &PageRank{}
	if err := pr.Run(store.New(1)); err != nil {
		t.Fatal(err)
	}
	if len(pr.Top(5)) != 0 {
		t.Error("empty store should have no ranks")
	}
}

// --- TemplateDetector ---

func TestTemplateDetectorFindsBoilerplate(t *testing.T) {
	st := store.New(2)
	footer := "Copyright example press all rights reserved."
	for i := 0; i < 8; i++ {
		put(t, st, &store.Entity{
			ID:   fmt.Sprintf("p%d", i),
			URL:  "http://reviews.example/page" + fmt.Sprint(i),
			Text: fmt.Sprintf("Unique content number %d about cameras. %s", i, footer),
		})
	}
	td := &TemplateDetector{}
	if err := td.Run(st); err != nil {
		t.Fatal(err)
	}
	if n := td.TemplateCount("reviews.example"); n != 1 {
		t.Errorf("template count = %d", n)
	}
	e, _ := st.Get("p0")
	content := td.ContentSentences(e)
	joined := ""
	for _, s := range content {
		joined += s.Text() + " "
	}
	if strings.Contains(joined, "Copyright") {
		t.Errorf("boilerplate not filtered: %q", joined)
	}
	if !strings.Contains(joined, "Unique content") {
		t.Errorf("content lost: %q", joined)
	}
}

func TestTemplateDetectorRespectsMinDocs(t *testing.T) {
	st := store.New(1)
	for i := 0; i < 3; i++ { // below MinDocs=5
		put(t, st, &store.Entity{
			ID:   fmt.Sprintf("p%d", i),
			URL:  "http://small.example/p",
			Text: "Shared sentence on every page.",
		})
	}
	td := &TemplateDetector{}
	if err := td.Run(st); err != nil {
		t.Fatal(err)
	}
	if td.TemplateCount("small.example") != 0 {
		t.Error("small hosts must be exempt")
	}
}

func TestTemplateDetectorHostIsolation(t *testing.T) {
	st := store.New(2)
	for i := 0; i < 6; i++ {
		put(t, st, &store.Entity{
			ID:  fmt.Sprintf("a%d", i),
			URL: "http://a.example/x", Text: "Host a footer line here."})
		put(t, st, &store.Entity{
			ID:  fmt.Sprintf("b%d", i),
			URL: "http://b.example/x", Text: fmt.Sprintf("Fresh text %d.", i)})
	}
	td := &TemplateDetector{}
	if err := td.Run(st); err != nil {
		t.Fatal(err)
	}
	tk := tokenize.New()
	footer := tk.Sentences("Host a footer line here.")[0]
	if !td.IsTemplate("a.example", footer) {
		t.Error("footer should be template on host a")
	}
	if td.IsTemplate("b.example", footer) {
		t.Error("template sets must not leak across hosts")
	}
}

// --- AggregateStats ---

func TestAggregateStats(t *testing.T) {
	st := store.New(2)
	put(t, st, &store.Entity{ID: "a", Source: "review", Text: "camera camera lens"})
	put(t, st, &store.Entity{ID: "b", Source: "web", Text: "camera oil"})
	agg := &AggregateStats{TopK: 2}
	if err := agg.Run(st); err != nil {
		t.Fatal(err)
	}
	if agg.Documents != 2 || agg.Tokens != 5 || agg.Vocabulary != 3 {
		t.Errorf("stats = %+v", agg)
	}
	if agg.AvgDocTokens != 2.5 {
		t.Errorf("avg = %v", agg.AvgDocTokens)
	}
	if agg.BySource["review"] != 1 || agg.BySource["web"] != 1 {
		t.Errorf("by source = %v", agg.BySource)
	}
	if len(agg.TopTerms) != 2 || agg.TopTerms[0].Term != "camera" || agg.TopTerms[0].Count != 3 {
		t.Errorf("top terms = %v", agg.TopTerms)
	}
}

// --- Trend ---

func TestTrendBucketsSentimentByMonth(t *testing.T) {
	st := store.New(2)
	mk := func(id, date, pol string) {
		e := &store.Entity{ID: id, Date: date, Text: "t"}
		e.Annotate(store.Annotation{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: pol})
		put(t, st, e)
	}
	mk("d1", "2004-01-10", "-")
	mk("d2", "2004-01-20", "-")
	mk("d3", "2004-02-05", "+")
	mk("d4", "2004-11-09", "+")
	mk("d5", "2004-11-21", "+")

	tr := &Trend{}
	if err := tr.Run(st); err != nil {
		t.Fatal(err)
	}
	series := tr.Series("nr70")
	if len(series) != 3 {
		t.Fatalf("series = %+v", series)
	}
	if series[0].Month != "2004-01" || series[0].Negative != 2 {
		t.Errorf("jan = %+v", series[0])
	}
	if series[2].Month != "2004-11" || series[2].Positive != 2 {
		t.Errorf("nov = %+v", series[2])
	}
	mom, ok := tr.Momentum("nr70")
	if !ok || mom <= 0 {
		t.Errorf("momentum = %v, %v (reputation improved)", mom, ok)
	}
	if subs := tr.Subjects(); len(subs) != 1 || subs[0] != "nr70" {
		t.Errorf("subjects = %v", subs)
	}
}

func TestTrendIgnoresUndatedAndForeignAnnotations(t *testing.T) {
	st := store.New(1)
	e := &store.Entity{ID: "a", Text: "t"} // no date
	e.Annotate(store.Annotation{Miner: "sentiment", Type: "polarity", Key: "x", Value: "+"})
	put(t, st, e)
	e2 := &store.Entity{ID: "b", Date: "2004-03-01", Text: "t"}
	e2.Annotate(store.Annotation{Miner: "geo", Type: "place", Key: "texas"})
	put(t, st, e2)
	tr := &Trend{}
	if err := tr.Run(st); err != nil {
		t.Fatal(err)
	}
	if len(tr.Subjects()) != 0 {
		t.Errorf("subjects = %v", tr.Subjects())
	}
	if _, ok := tr.Momentum("x"); ok {
		t.Error("momentum without data should report !ok")
	}
}

// --- KMeans ---

func TestKMeansSeparatesDomains(t *testing.T) {
	st := store.New(2)
	cameraDocs := []string{
		"camera lens zoom battery flash picture",
		"battery zoom camera flash viewfinder picture",
		"lens picture camera zoom battery menu",
	}
	oilDocs := []string{
		"oil refinery pipeline crude barrel drilling",
		"pipeline crude oil barrel refinery exploration",
		"drilling oil crude pipeline refinery energy",
	}
	for i, txt := range cameraDocs {
		put(t, st, &store.Entity{ID: fmt.Sprintf("cam%d", i), Text: txt})
	}
	for i, txt := range oilDocs {
		put(t, st, &store.Entity{ID: fmt.Sprintf("oil%d", i), Text: txt})
	}
	km := &KMeans{K: 2, Seed: 3}
	if err := km.Run(st); err != nil {
		t.Fatal(err)
	}
	camCluster := km.Cluster("cam0")
	oilCluster := km.Cluster("oil0")
	if camCluster == oilCluster {
		t.Fatalf("domains not separated: %v vs %v", camCluster, oilCluster)
	}
	for i := 1; i < 3; i++ {
		if km.Cluster(fmt.Sprintf("cam%d", i)) != camCluster {
			t.Errorf("cam%d in wrong cluster", i)
		}
		if km.Cluster(fmt.Sprintf("oil%d", i)) != oilCluster {
			t.Errorf("oil%d in wrong cluster", i)
		}
	}
	sizes := km.Sizes()
	if sizes[camCluster] != 3 || sizes[oilCluster] != 3 {
		t.Errorf("sizes = %v", sizes)
	}
	tops := km.TopTerms(oilCluster)
	found := false
	for _, term := range tops {
		if term == "oil" || term == "crude" || term == "pipeline" {
			found = true
		}
	}
	if !found {
		t.Errorf("oil cluster top terms = %v", tops)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	st := store.New(2)
	for i := 0; i < 12; i++ {
		put(t, st, &store.Entity{ID: fmt.Sprintf("d%d", i), Text: fmt.Sprintf("token%d shared words here", i%3)})
	}
	a := &KMeans{K: 3, Seed: 7}
	b := &KMeans{K: 3, Seed: 7}
	if err := a.Run(st); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("d%d", i)
		if a.Cluster(id) != b.Cluster(id) {
			t.Fatalf("nondeterministic assignment for %s", id)
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	km := &KMeans{K: 3}
	if err := km.Run(store.New(1)); err != nil {
		t.Fatal(err)
	}
	if km.Cluster("missing") != -1 {
		t.Error("unknown doc should be -1")
	}
	// K larger than corpus clamps.
	st := store.New(1)
	put(t, st, &store.Entity{ID: "only", Text: "some words here"})
	km2 := &KMeans{K: 5}
	if err := km2.Run(st); err != nil {
		t.Fatal(err)
	}
	if km2.Cluster("only") != 0 {
		t.Errorf("cluster = %d", km2.Cluster("only"))
	}
	if km.TopTerms(99) != nil {
		t.Error("out-of-range cluster should be nil")
	}
}

// --- integration: the geo miner, then every corpus miner, over one store ---

func TestCorpusMinersRunInPipeline(t *testing.T) {
	st := store.New(2)
	for i := 0; i < 12; i++ {
		put(t, st, &store.Entity{
			ID:   fmt.Sprintf("d%02d", i),
			URL:  "http://host.example/p",
			Date: fmt.Sprintf("2004-%02d-01", 1+i%12),
			Text: fmt.Sprintf("Document %d talks about Texas oil production near the coast. Footer line.", i),
		})
	}
	mineGeo(t, st, NewGeoContext())
	agg := &AggregateStats{}
	dd := &DuplicateDetector{}
	td := &TemplateDetector{}
	pr := &PageRank{}
	for _, run := range []func(*store.Store) error{agg.Run, dd.Run, td.Run, pr.Run} {
		if err := run(st); err != nil {
			t.Fatal(err)
		}
	}
	if agg.Documents != 12 {
		t.Errorf("agg docs = %d", agg.Documents)
	}
	if td.TemplateCount("host.example") == 0 {
		t.Error("footer not detected as template")
	}
	e, _ := st.Get("d00")
	if len(Places(e)) == 0 {
		t.Error("geo miner did not annotate")
	}
}
