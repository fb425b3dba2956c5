package webfountain

import (
	"reflect"
	"testing"

	"webfountain/internal/corpus"
)

// Mining fans out over parallel workers, each document's facts landing
// in its own slot, and Run then sorts them on a total key: two runs over
// the same corpus, in either miner mode, must report the facts in the
// same order. This guards the slots and the sort.SliceStable + full-key
// ordering in Run.
func TestMinerRunDeterministicOrder(t *testing.T) {
	gen := corpus.DigitalCameraReviews(3, 30)
	docs := make([]Document, len(gen))
	for i := range gen {
		docs[i] = Document{
			ID: gen[i].ID, Source: gen[i].Source,
			Title: gen[i].Title, Text: gen[i].Text(),
		}
	}
	p := NewPlatform(PlatformConfig{IngestWorkers: 4})
	if _, err := p.Ingest(docs); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name string
		cfg  MinerConfig
	}{
		{"entities", MinerConfig{}},
		{"subjects", MinerConfig{Subjects: []Subject{
			{Canonical: "NR70"}, {Canonical: "battery"}, {Canonical: "CLIE"},
		}}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var prev []SubjectSentiment
			for run := 0; run < 3; run++ {
				m, err := NewSentimentMiner(mode.cfg)
				if err != nil {
					t.Fatal(err)
				}
				facts, err := m.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(facts) == 0 {
					t.Fatal("no facts mined; the corpus should produce some")
				}
				if run > 0 && !reflect.DeepEqual(prev, facts) {
					t.Fatalf("run %d produced a different fact ordering than run %d", run, run-1)
				}
				prev = facts
			}
		})
	}
}
