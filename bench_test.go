package webfountain

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (reporting the measured metrics alongside throughput), plus
// micro-benchmarks for every pipeline component. Regenerate everything
// with:
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks run reduced corpus sizes per iteration so
// -bench stays tractable; cmd/experiments reproduces the paper-scale
// numbers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"webfountain/internal/baselines"
	"webfountain/internal/chunk"
	"webfountain/internal/corpus"
	"webfountain/internal/eval"
	"webfountain/internal/feature"
	"webfountain/internal/lexicon"
	"webfountain/internal/miners"
	"webfountain/internal/pos"
	"webfountain/internal/sentiment"
	"webfountain/internal/serve"
	"webfountain/internal/services"
	"webfountain/internal/spotter"
	storepkg "webfountain/internal/store"
	"webfountain/internal/tokenize"
	"webfountain/internal/vinci"
)

const benchSeed = eval.DefaultSeed

// --- Benchmarks regenerating the paper's tables and figures ---

// BenchmarkTable4 regenerates Table 4 (review datasets: SM vs. collocation
// vs. ReviewSeer) and reports the headline metrics.
func BenchmarkTable4(b *testing.B) {
	var res eval.Table4Result
	for i := 0; i < b.N; i++ {
		res = eval.Table4(benchSeed, 200, 100)
	}
	for _, r := range res.Rows {
		b.ReportMetric(100*r.Precision, r.System+"_P%")
		b.ReportMetric(100*r.Recall, r.System+"_R%")
		b.ReportMetric(100*r.Accuracy, r.System+"_Acc%")
	}
}

// BenchmarkTable5 regenerates Table 5 (general web/news: SM holds,
// ReviewSeer collapses).
func BenchmarkTable5(b *testing.B) {
	var rows []eval.Table5Row
	for i := 0; i < b.N; i++ {
		rows = eval.Table5(benchSeed, 60, 40)
	}
	for _, r := range rows {
		key := r.System + "(" + strings.ReplaceAll(r.Corpus, ", ", "-") + ")"
		b.ReportMetric(100*r.Accuracy, key+"_Acc%")
	}
}

// BenchmarkTable2 regenerates Table 2 (top-20 feature terms by bBNP-L).
func BenchmarkTable2(b *testing.B) {
	var res eval.FeatureResult
	for i := 0; i < b.N; i++ {
		res = eval.FeatureExtraction("camera", benchSeed, 100, 300, feature.BBNP)
	}
	b.ReportMetric(float64(len(res.Top)), "top_terms")
	b.ReportMetric(100*res.Precision, "precision%")
}

// BenchmarkTable3 regenerates Table 3 (product vs. feature references).
func BenchmarkTable3(b *testing.B) {
	var res eval.Table3Result
	for i := 0; i < b.N; i++ {
		res = eval.Table3(benchSeed, 100)
	}
	b.ReportMetric(res.Ratio(), "feature/product_ratio")
}

// BenchmarkFeaturePrecision regenerates the feature-extraction precision
// result (paper: 97% camera, 100% music).
func BenchmarkFeaturePrecision(b *testing.B) {
	var cam, mus eval.FeatureResult
	for i := 0; i < b.N; i++ {
		cam = eval.FeatureExtraction("camera", benchSeed, 100, 300, feature.BBNP)
		mus = eval.FeatureExtraction("music", benchSeed, 60, 300, feature.BBNP)
	}
	b.ReportMetric(100*cam.Precision, "camera_precision%")
	b.ReportMetric(100*mus.Precision, "music_precision%")
}

// BenchmarkSatisfaction regenerates the Figure 2 inset chart (customer
// satisfaction by product and feature).
func BenchmarkSatisfaction(b *testing.B) {
	var cells []eval.SatisfactionCell
	for i := 0; i < b.N; i++ {
		cells = eval.Satisfaction(benchSeed, 100, 7, []string{"picture quality", "battery", "flash"})
	}
	b.ReportMetric(float64(len(cells)), "chart_cells")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

func benchmarkAblation(b *testing.B, opts sentiment.Options) {
	docs := corpus.DigitalCameraReviews(benchSeed, 60)
	subjects := append(append([]string{}, corpus.CameraProducts...), corpus.CameraFeatures...)
	cases := eval.Cases(docs, subjects)
	b.ResetTimer()
	var m eval.Metrics
	for i := 0; i < b.N; i++ {
		m = eval.NewRunner(sentiment.NewWithOptions(nil, nil, opts)).EvalSentimentMiner(docs, cases)
	}
	b.ReportMetric(100*m.Precision(), "P%")
	b.ReportMetric(100*m.Recall(), "R%")
}

// BenchmarkAblationFull is the full algorithm baseline for the ablations.
func BenchmarkAblationFull(b *testing.B) { benchmarkAblation(b, sentiment.Options{}) }

// BenchmarkAblationNegation disables negation handling.
func BenchmarkAblationNegation(b *testing.B) {
	benchmarkAblation(b, sentiment.Options{DisableNegation: true})
}

// BenchmarkAblationTransVerbs disables trans-verb sentiment transfer.
func BenchmarkAblationTransVerbs(b *testing.B) {
	benchmarkAblation(b, sentiment.Options{DisableTransVerbs: true})
}

// BenchmarkAblationContrast disables the unlike-contrast rule.
func BenchmarkAblationContrast(b *testing.B) {
	benchmarkAblation(b, sentiment.Options{DisableContrast: true})
}

// --- Component micro-benchmarks ---

var benchSentences = []string{
	"This camera takes excellent pictures in daylight and indoors.",
	"Unlike the more recent T series CLIEs, the NR70 does not require an add-on adapter.",
	"I am impressed by the picture quality, although the battery drains quickly.",
	"The company offers mediocre services and the support staff never responds.",
	"The first movement is a haunting piece with gorgeous harmonies.",
}

func benchText() string {
	out := ""
	for _, s := range benchSentences {
		out += s + " "
	}
	return out
}

// BenchmarkTokenizer measures raw tokenization throughput.
func BenchmarkTokenizer(b *testing.B) {
	tk := tokenize.New()
	text := benchText()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Tokenize(text)
	}
}

// BenchmarkSentenceSplit measures sentence segmentation.
func BenchmarkSentenceSplit(b *testing.B) {
	tk := tokenize.New()
	text := benchText()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Sentences(text)
	}
}

// BenchmarkPOSTagger measures tagging throughput.
func BenchmarkPOSTagger(b *testing.B) {
	tk := tokenize.New()
	tg := pos.NewTagger()
	toks := tk.Tokenize(benchText())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Tag(toks)
	}
}

// BenchmarkChunker measures shallow parsing throughput.
func BenchmarkChunker(b *testing.B) {
	tk := tokenize.New()
	tg := pos.NewTagger()
	ck := chunk.New()
	tagged := tg.Tag(tk.Tokenize(benchText()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.Clauses(tagged)
	}
}

// BenchmarkSentimentAnalyzer measures the core per-sentence analysis.
func BenchmarkSentimentAnalyzer(b *testing.B) {
	tk := tokenize.New()
	tg := pos.NewTagger()
	an := sentiment.New(nil, nil)
	var taggedSentences [][]pos.TaggedToken
	for _, s := range benchSentences {
		taggedSentences = append(taggedSentences, tg.Tag(tk.Tokenize(s)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Analyze(taggedSentences[i%len(taggedSentences)])
	}
}

// BenchmarkSpotter measures Aho-Corasick spotting over all camera subjects.
func BenchmarkSpotter(b *testing.B) {
	subjects := append(append([]string{}, corpus.CameraProducts...), corpus.CameraFeatures...)
	sp := spotter.New(corpus.SynonymSets(subjects))
	tk := tokenize.New()
	toks := tk.Tokenize(benchText())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.SpotTokens(toks)
	}
}

// BenchmarkCollocationBaseline measures the collocation classifier.
func BenchmarkCollocationBaseline(b *testing.B) {
	tk := tokenize.New()
	tg := pos.NewTagger()
	col := baselines.NewCollocation(nil)
	tagged := tg.Tag(tk.Tokenize(benchSentences[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Classify(tagged, 1, 2)
	}
}

// BenchmarkNaiveBayesClassify measures the statistical baseline at
// sentence granularity.
func BenchmarkNaiveBayesClassify(b *testing.B) {
	nb := eval.TrainReviewSeer(corpus.DigitalCameraReviews(benchSeed, 50))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Classify(benchSentences[i%len(benchSentences)])
	}
}

// BenchmarkMinerAnalyzeText measures the public API's ad-hoc path.
func BenchmarkMinerAnalyzeText(b *testing.B) {
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	text := benchText()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AnalyzeText(text)
	}
}

// BenchmarkMinerNew measures building a miner with extra lexicon
// entries: each iteration builds a private lexicon and its phrase
// automaton (the pattern database and the tagger's tables are shared),
// the work a process does once before its first answer.
func BenchmarkMinerNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewSentimentMiner(MinerConfig{ExtraLexicon: strings.NewReader(`"zx900" JJ +`)})
		if err != nil {
			b.Fatal(err)
		}
		if m.analyzer.Lexicon() == lexicon.Shared() {
			b.Fatal("miner with extra entries shares the default lexicon")
		}
	}
}

// bulkTexts returns n documents shaped like the ingest_bulk workload's:
// each joins five alternating camera and music reviews, about 6.7 KB.
func bulkTexts(n int) []string {
	const join = 5
	half := (n*join + 1) / 2
	camera := corpus.DigitalCameraReviews(benchSeed, half)
	music := corpus.MusicReviews(benchSeed, half)
	out := make([]string, n)
	for i := range out {
		parts := make([]string, 0, join)
		for k := i * join; k < (i+1)*join; k++ {
			if k%2 == 0 {
				parts = append(parts, camera[k/2].Text())
			} else {
				parts = append(parts, music[k/2].Text())
			}
		}
		out[i] = strings.Join(parts, " ")
	}
	return out
}

// BenchmarkMinerAnalyzeBulk measures one document's analysis in the mode
// wfserver runs (named entities), over ingest_bulk-shaped documents:
// tokenize, split, spot, tag, chunk and analyze, as the ingest step runs
// it. It reports microseconds per document.
func BenchmarkMinerAnalyzeBulk(b *testing.B) {
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	texts := bulkTexts(20)
	size := 0
	for _, t := range texts {
		size += len(t)
	}
	b.SetBytes(int64(size / len(texts)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.analyzeEntity("", texts[i%len(texts)], nil)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/doc")
}

// BenchmarkGatewayIngestBulk measures the whole server-side ingest path
// of cmd/wfserver in process: the gateway reads and decodes a
// 32-document bulk body, the serving tier analyzes each document and
// folds its facts, and the durable store commits the batch (one WAL
// write and fsync, in a temporary directory). It reports microseconds,
// bytes allocated and allocations per document.
func BenchmarkGatewayIngestBulk(b *testing.B) {
	const batch = 32
	p, err := OpenPlatform(PlatformConfig{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	tier, _, err := RecoverServingTier(p, m, ServingTierConfig{})
	if err != nil {
		b.Fatal(err)
	}
	h := NewServingGateway(tier, ServingGatewayConfig{TenantRate: 1e9, TenantBurst: 1 << 30})
	texts := bulkTexts(2 * batch)
	var bodies [][]byte
	for i := 0; i < len(texts); i += batch {
		var req struct {
			Docs []serve.Doc `json:"docs"`
		}
		for k, text := range texts[i : i+batch] {
			req.Docs = append(req.Docs, serve.Doc{Source: "review", Title: fmt.Sprintf("bulk %d", i+k), Date: "2004-03-02", Text: text})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	b.SetBytes(int64(len(bodies[0])))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK {
			b.Fatalf("ingest: status %d: %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	docs := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/docs, "us/doc")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/docs, "B/doc")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/docs, "allocs/doc")
}

// BenchmarkMinerRun measures end-to-end parallel mining over a platform,
// a fresh one each iteration, built outside the timer (Run writes back
// only to documents that carry no sentiment annotation yet).
func BenchmarkMinerRun(b *testing.B) {
	generated := corpus.DigitalCameraReviews(benchSeed, 50)
	docs := make([]Document, len(generated))
	for i := range generated {
		docs[i] = Document{ID: generated[i].ID, Text: generated[i].Text()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := NewPlatform(PlatformConfig{})
		if _, err := p.Ingest(docs); err != nil {
			b.Fatal(err)
		}
		m, err := NewSentimentMiner(MinerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(docs)), "docs/op")
}

// BenchmarkPlatformIngest measures ingestion + indexing throughput.
func BenchmarkPlatformIngest(b *testing.B) {
	generated := corpus.DigitalCameraReviews(benchSeed, 50)
	docs := make([]Document, len(generated))
	bytes := 0
	for i := range generated {
		docs[i] = Document{Text: generated[i].Text()}
		bytes += len(docs[i].Text)
	}
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPlatform(PlatformConfig{})
		if _, err := p.Ingest(docs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction measures the bBNP-L pipeline itself.
func BenchmarkFeatureExtraction(b *testing.B) {
	on := corpus.DigitalCameraReviews(benchSeed, 40)
	off := corpus.Distractors(benchSeed+2, 120)
	onTexts := make([]string, len(on))
	for i := range on {
		onTexts[i] = on[i].Text()
	}
	offTexts := make([]string, len(off))
	for i := range off {
		offTexts[i] = off[i].Text()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractFeatures(onTexts, offTexts, FeatureConfig{})
	}
}

// BenchmarkCorpusGeneration measures the synthetic data generator.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus.DigitalCameraReviews(int64(i), 50)
	}
}

// Example-style sanity output for the harness itself.
func ExampleNewSentimentMiner() {
	m, _ := NewSentimentMiner(MinerConfig{})
	for _, f := range m.AnalyzeText("The NR70 takes excellent pictures.") {
		fmt.Printf("(%s, %s)\n", f.Subject, f.Polarity)
	}
	// Output: (NR70, +)
}

// --- Platform miner benchmarks ---

func minerStore(b *testing.B, n int) *Platform {
	b.Helper()
	generated := corpus.PetroleumWeb(benchSeed, n)
	docs := make([]Document, len(generated))
	for i := range generated {
		docs[i] = Document{
			ID: generated[i].ID, URL: "http://petroleum.example/" + generated[i].ID,
			Date: generated[i].Date, Links: generated[i].Links, Text: generated[i].Text(),
		}
	}
	p := NewPlatform(PlatformConfig{})
	if _, err := p.Ingest(docs); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGeoContextMiner measures the geographic context miner's pass
// over a 60-document platform. Each iteration mines a fresh platform,
// built outside the timer: the pass skips documents that already carry
// geo annotations, so a second pass over one platform would mine none.
func BenchmarkGeoContextMiner(b *testing.B) {
	geo := miners.NewGeoContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := minerStore(b, 60)
		b.StartTimer()
		if err := p.mineGeo(geo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDuplicateDetection measures minhash dedup over the corpus.
func BenchmarkDuplicateDetection(b *testing.B) {
	p := minerStore(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dd := &miners.DuplicateDetector{}
		if err := dd.Run(p.internalStore()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRankMiner measures link-graph ranking.
func BenchmarkPageRankMiner(b *testing.B) {
	p := minerStore(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := &miners.PageRank{}
		if err := pr.Run(p.internalStore()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansMiner measures TF-IDF document clustering.
func BenchmarkKMeansMiner(b *testing.B) {
	p := minerStore(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km := &miners.KMeans{K: 4}
		if err := km.Run(p.internalStore()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVinciLocalCall measures the in-process service path.
func BenchmarkVinciLocalCall(b *testing.B) {
	reg := vinci.NewRegistry()
	st := storepkg.New(4)
	services.RegisterStore(reg, st)
	c := services.StoreClient{C: vinci.NewLocalClient(reg)}
	if err := c.Put(&storepkg.Entity{ID: "bench", Text: "some text here"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVinciTCPCall measures the full network round trip.
func BenchmarkVinciTCPCall(b *testing.B) {
	reg := vinci.NewRegistry()
	st := storepkg.New(4)
	services.RegisterStore(reg, st)
	if err := st.Put(&storepkg.Entity{ID: "bench", Text: "some text here"}); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := vinci.NewServer(reg)
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := vinci.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	c := services.StoreClient{C: conn}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
