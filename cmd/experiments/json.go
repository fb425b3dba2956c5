package main

import (
	"encoding/json"
	"io"

	"webfountain/internal/corpus"
	"webfountain/internal/eval"
	"webfountain/internal/feature"
)

// jsonReport is the machine-readable form of the full experiment run, for
// downstream tooling (dashboards, regression tracking).
type jsonReport struct {
	Seed             int64                   `json:"seed"`
	FeaturePrecision map[string]float64      `json:"feature_precision"`
	Table2           map[string][]string     `json:"table2_top_terms"`
	Table3           jsonTable3              `json:"table3"`
	Table4           []eval.Table4Row        `json:"table4"`
	Table4CI         map[string][2]float64   `json:"table4_sm_ci95"`
	Table5           []eval.Table5Row        `json:"table5"`
	Satisfaction     []eval.SatisfactionCell `json:"satisfaction"`
}

type jsonTable3 struct {
	ProductRefs int     `json:"product_refs"`
	FeatureRefs int     `json:"feature_refs"`
	Ratio       float64 `json:"ratio"`
}

// runJSON executes every experiment and emits one JSON document on w.
func (e experiments) runJSON(w io.Writer) error {
	rep := jsonReport{
		Seed:             e.seed,
		FeaturePrecision: map[string]float64{},
		Table2:           map[string][]string{},
		Table4CI:         map[string][2]float64{},
	}

	for _, dom := range []string{"camera", "music"} {
		docs := e.cameraDocs
		if dom == "music" {
			docs = e.musicDocs
		}
		res := eval.FeatureExtraction(dom, e.seed, docs, e.offTopic, feature.BBNP)
		rep.FeaturePrecision[dom] = res.Precision
		var terms []string
		for _, st := range res.Top {
			terms = append(terms, st.Term)
		}
		rep.Table2[dom] = terms
	}

	t3 := eval.Table3(e.seed, e.cameraDocs)
	rep.Table3 = jsonTable3{ProductRefs: t3.ProductTotal, FeatureRefs: t3.FeatureTotal, Ratio: t3.Ratio()}

	rep.Table4 = eval.Table4(e.seed, e.cameraDocs, e.musicDocs).Rows
	docs := corpus.DigitalCameraReviews(e.seed, e.cameraDocs)
	subjects := append(append([]string{}, corpus.CameraProducts...), corpus.CameraFeatures...)
	outcomes := eval.NewRunner(nil).SentimentOutcomes(docs, eval.Cases(docs, subjects))
	for name, fn := range map[string]func(eval.Metrics) float64{
		"precision": eval.PrecisionMetric,
		"recall":    eval.RecallMetric,
		"accuracy":  eval.AccuracyMetric,
	} {
		lo, hi := eval.BootstrapCI(outcomes, fn, 500, 0.05, e.seed)
		rep.Table4CI[name] = [2]float64{lo, hi}
	}

	rep.Table5 = eval.Table5(e.seed, e.webDocs, e.newsDocs)
	rep.Satisfaction = eval.Satisfaction(e.seed, e.cameraDocs, 7, []string{"picture quality", "battery", "flash"})

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
