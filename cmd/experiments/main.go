// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic corpora, printing paper-reported
// numbers next to measured ones.
//
// Usage:
//
//	experiments [-run all|table2|table3|table4|table5|featureprec|satisfaction|ablation]
//	            [-scale f] [-seed n]
//
// -scale shrinks the corpus sizes for quick runs (1.0 = the paper's
// dataset sizes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"webfountain/internal/corpus"
	"webfountain/internal/eval"
	"webfountain/internal/feature"
	"webfountain/internal/sentiment"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, table2, table3, table4, table5, featureprec, satisfaction, ablation, json")
	scale := flag.Float64("scale", 1.0, "corpus size multiplier (1.0 = paper-scale)")
	seed := flag.Int64("seed", eval.DefaultSeed, "corpus generation seed")
	flag.Parse()

	e := newExperiments(*seed, *scale)

	all := map[string]func(){
		"featureprec":  e.featurePrecision,
		"table2":       e.table2,
		"table3":       e.table3,
		"table4":       e.table4,
		"table5":       e.table5,
		"satisfaction": e.satisfaction,
		"ablation":     e.ablation,
		"bboard":       e.bboard,
	}
	order := []string{"featureprec", "table2", "table3", "table4", "table5", "satisfaction", "ablation", "bboard"}

	if *run == "json" {
		if err := e.runJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "encode:", err)
			os.Exit(1)
		}
		return
	}
	if *run == "all" {
		for _, name := range order {
			all[name]()
		}
		return
	}
	fn, ok := all[*run]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of: all %s)\n", *run, strings.Join(order, " "))
		os.Exit(2)
	}
	fn()
}

// newExperiments sizes every corpus from the paper's dataset sizes.
func newExperiments(seed int64, scale float64) experiments {
	return experiments{
		seed:       seed,
		cameraDocs: scaled(eval.PaperCameraDocs, scale),
		musicDocs:  scaled(eval.PaperMusicDocs, scale),
		offTopic:   scaled(eval.PaperCameraOffTopic, scale),
		webDocs:    scaled(eval.DefaultWebDocs, scale),
		newsDocs:   scaled(eval.DefaultNewsDocs, scale),
	}
}

func scaled(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 10 {
		v = 10
	}
	return v
}

type experiments struct {
	seed                        int64
	cameraDocs, musicDocs       int
	offTopic, webDocs, newsDocs int
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// featurePrecision reproduces the bBNP-L precision result (97% camera,
// 100% music).
func (e experiments) featurePrecision() {
	header("Feature extraction precision (paper: 97% camera, 100% music)")
	for _, dom := range []string{"camera", "music"} {
		docs := e.cameraDocs
		if dom == "music" {
			docs = e.musicDocs
		}
		res := eval.FeatureExtraction(dom, e.seed, docs, e.offTopic, feature.BBNP)
		fmt.Printf("  %-7s precision = %5.1f%%  (%d terms selected at 99.9%% confidence)\n",
			dom, 100*res.Precision, res.Selected)
	}
}

// table2 prints the top-20 feature terms per domain.
func (e experiments) table2() {
	header("Table 2: top 20 feature terms by bBNP-L rank")
	cam := eval.FeatureExtraction("camera", e.seed, e.cameraDocs, e.offTopic, feature.BBNP)
	mus := eval.FeatureExtraction("music", e.seed, e.musicDocs, e.offTopic, feature.BBNP)
	fmt.Printf("  %-4s %-22s %-22s\n", "rank", "Digital Camera", "Music Albums")
	for i := 0; i < 20; i++ {
		c, m := "", ""
		if i < len(cam.Top) {
			c = cam.Top[i].Term
		}
		if i < len(mus.Top) {
			m = mus.Top[i].Term
		}
		fmt.Printf("  %-4d %-22s %-22s\n", i+1, c, m)
	}
}

// table3 prints product vs. feature reference counts.
func (e experiments) table3() {
	header("Table 3: product vs. feature references (paper ratio: 12.4x)")
	res := eval.Table3(e.seed, e.cameraDocs)
	fmt.Printf("  %-14s %10s    %-16s %10s\n", "Product", "refs", "Feature", "refs")
	for i := 0; i < 7; i++ {
		p, pn, f, fn := "", 0, "", 0
		if i < len(res.Products) {
			p, pn = res.Products[i].Term, res.Products[i].Count
		}
		if i < len(res.Features) {
			f, fn = res.Features[i].Term, res.Features[i].Count
		}
		fmt.Printf("  %-14s %10d    %-16s %10d\n", p, pn, f, fn)
	}
	fmt.Printf("  %-14s %10d    %-16s %10d\n",
		fmt.Sprintf("%d products", res.NumProducts), res.ProductTotal,
		fmt.Sprintf("%d features", res.NumFeatures), res.FeatureTotal)
	fmt.Printf("  feature/product reference ratio = %.1fx\n", res.Ratio())
}

// table4 prints the review-dataset comparison.
func (e experiments) table4() {
	header("Table 4: product review datasets")
	fmt.Println("  paper:  SM P=87% R=56% Acc=85.6% | Collocation P=18% R=70% | ReviewSeer Acc=88.4%")
	res := eval.Table4(e.seed, e.cameraDocs, e.musicDocs)
	for _, r := range res.Rows {
		fmt.Printf("  %-12s P=%5.1f%%  R=%5.1f%%  Acc=%5.1f%%  (n=%d)\n",
			r.System, 100*r.Precision, 100*r.Recall, 100*r.Accuracy, r.Cases)
	}
	fmt.Printf("  (ReviewSeer evaluated at document level on %d held-out reviews, as the original system was)\n", res.ReviewTestDocs)

	// 95% bootstrap confidence intervals for the miner's headline numbers
	// on the camera corpus.
	docs := corpus.DigitalCameraReviews(e.seed, e.cameraDocs)
	subjects := append(append([]string{}, corpus.CameraProducts...), corpus.CameraFeatures...)
	outcomes := eval.NewRunner(nil).SentimentOutcomes(docs, eval.Cases(docs, subjects))
	for _, mm := range []struct {
		name string
		fn   func(eval.Metrics) float64
	}{{"precision", eval.PrecisionMetric}, {"recall", eval.RecallMetric}, {"accuracy", eval.AccuracyMetric}} {
		lo, hi := eval.BootstrapCI(outcomes, mm.fn, 500, 0.05, e.seed)
		fmt.Printf("  SM %s 95%% CI (camera, bootstrap): [%.1f%%, %.1f%%]\n", mm.name, 100*lo, 100*hi)
	}
}

// table5 prints the general web/news comparison.
func (e experiments) table5() {
	header("Table 5: general web documents and news articles")
	fmt.Println("  paper:  SM(Petro,Web) 86/90 | SM(Pharma,Web) 91/93 | SM(Petro,News) 88/91 | ReviewSeer 38 (68 w/o I)")
	for _, r := range eval.Table5(e.seed, e.webDocs, e.newsDocs) {
		if r.System == "SM" {
			fmt.Printf("  SM  %-22s P=%5.1f%%  Acc=%5.1f%%  (n=%d)\n",
				r.Corpus, 100*r.Precision, 100*r.Accuracy, r.Cases)
		} else {
			fmt.Printf("  %-4s %-22s Acc=%5.1f%%  Acc w/o I class=%5.1f%%  (n=%d)\n",
				"RS", r.Corpus, 100*r.Accuracy, 100*r.AccuracyNoIClass, r.Cases)
		}
	}
}

// satisfaction prints the Figure 2 inset chart as rows.
func (e experiments) satisfaction() {
	header("Figure 2 inset: digital camera customer satisfaction (% pages positive)")
	features := []string{"picture quality", "battery", "flash"}
	cells := eval.Satisfaction(e.seed, e.cameraDocs, 7, features)
	byProduct := map[string]map[string]float64{}
	for _, c := range cells {
		m, ok := byProduct[c.Product]
		if !ok {
			m = map[string]float64{}
			byProduct[c.Product] = m
		}
		m[c.Feature] = c.Share()
	}
	fmt.Printf("  %-10s", "product")
	for _, f := range features {
		fmt.Printf(" %16s", f)
	}
	fmt.Println()
	for _, p := range corpus.CameraProducts[:7] {
		fmt.Printf("  %-10s", p)
		for _, f := range features {
			if v, ok := byProduct[p][f]; ok {
				fmt.Printf(" %15.0f%%", v)
			} else {
				fmt.Printf(" %16s", "-")
			}
		}
		fmt.Println()
	}
}

// bboard measures the miner on the bulletin-board channel: short, noisy,
// lower-cased posts (the paper lists preprocessed bulletin boards and NNTP
// among WebFountain's sources).
func (e experiments) bboard() {
	header("Bulletin-board posts (robustness on short noisy text)")
	docs := corpus.BulletinBoard(e.seed, e.webDocs)
	cases := eval.Cases(docs, corpus.CameraProducts)
	r := eval.NewRunner(nil)
	sm := r.EvalSentimentMiner(docs, cases)
	col := r.EvalCollocation(docs, cases)
	fmt.Printf("  %-12s P=%5.1f%%  R=%5.1f%%  Acc=%5.1f%%  (n=%d posts)\n",
		"SM", 100*sm.Precision(), 100*sm.Recall(), 100*sm.Accuracy(), sm.Total)
	fmt.Printf("  %-12s P=%5.1f%%  R=%5.1f%%  Acc=%5.1f%%\n",
		"Collocation", 100*col.Precision(), 100*col.Recall(), 100*col.Accuracy())
}

// ablation quantifies the design choices DESIGN.md calls out.
func (e experiments) ablation() {
	header("Ablations on the camera review corpus")
	docs := corpus.DigitalCameraReviews(e.seed, e.cameraDocs)
	subjects := append(append([]string{}, corpus.CameraProducts...), corpus.CameraFeatures...)
	cases := eval.Cases(docs, subjects)

	variants := []struct {
		name string
		opts sentiment.Options
	}{
		{"full algorithm", sentiment.Options{}},
		{"no negation handling", sentiment.Options{DisableNegation: true}},
		{"no trans-verb transfer", sentiment.Options{DisableTransVerbs: true}},
		{"no unlike-contrast rule", sentiment.Options{DisableContrast: true}},
	}
	for _, v := range variants {
		m := eval.NewRunner(sentiment.NewWithOptions(nil, nil, v.opts)).EvalSentimentMiner(docs, cases)
		fmt.Printf("  %-24s P=%5.1f%%  R=%5.1f%%  Acc=%5.1f%%\n",
			v.name, 100*m.Precision(), 100*m.Recall(), 100*m.Accuracy())
	}

	fmt.Println("  sentiment context window (sentences each side of a spot):")
	runner := eval.NewRunner(nil)
	for _, w := range []int{0, 1, 2} {
		m := runner.EvalSentimentMinerWindowed(docs, cases, w)
		fmt.Printf("  window=%-17d P=%5.1f%%  R=%5.1f%%  Acc=%5.1f%%\n",
			w, 100*m.Precision(), 100*m.Recall(), 100*m.Accuracy())
	}

	fmt.Println("  candidate heuristic (feature extraction):")
	for _, h := range []struct {
		name string
		h    feature.Heuristic
	}{{"bBNP (paper)", feature.BBNP}, {"dBNP (anywhere)", feature.DBNP}, {"all base NPs", feature.AllBNP}} {
		res := eval.FeatureExtraction("camera", e.seed, e.cameraDocs, e.offTopic, h.h)
		fmt.Printf("  %-24s precision=%5.1f%%  selected=%d\n", h.name, 100*res.Precision, res.Selected)
	}
}
