package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webfountain"
)

// Same seed, same bytes and schedule; another seed, another stream.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a, b := generate(sp, 7, 1), generate(sp, 7, 1)
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed generated two different streams", sp.name)
		}
		if !reflect.DeepEqual(a.ingest[0].body, b.ingest[0].body) || a.queries[len(a.queries)-1] != b.queries[len(b.queries)-1] {
			t.Errorf("%s: the same seed generated different requests", sp.name)
		}
		if c := generate(sp, 8, 1); c.digest() == a.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", sp.name)
		}
		if len(a.ingest) == 0 || len(a.queries) == 0 || len(a.preload) == 0 {
			t.Errorf("%s: an empty stream (%d ingest, %d queries, %d preload)", sp.name, len(a.ingest), len(a.queries), len(a.preload))
		}
	}
}

// A repeated ID double-counts the aggregates today and would poison the
// oracle, so IDs are unique within and across workloads and seeds.
func TestDocIDsNeverRepeat(t *testing.T) {
	seen := map[string]string{}
	for _, sp := range specs {
		for _, seed := range []int64{7, 8} {
			st := generate(sp, seed, 1)
			for _, reqs := range [][]ingestReq{st.preload, st.ingest} {
				for _, r := range reqs {
					for _, d := range r.docs {
						if d.ID == "" {
							t.Fatalf("%s: a document without an ID", sp.name)
						}
						if prev, dup := seen[d.ID]; dup {
							t.Fatalf("document ID %s of %s seed %d was already used by %s", d.ID, sp.name, seed, prev)
						}
						seen[d.ID] = sp.name
					}
				}
			}
		}
	}
}

// The server receives only the generated inputs: its own corpus is
// switched off and no flag carries the benchmark's seed.
func TestServerNeverSeesTheSeed(t *testing.T) {
	flags := strings.Join(serverFlags, " ")
	if !strings.Contains(flags, "-docs 0") {
		t.Errorf("server flags %q leave the server's own generated corpus on", flags)
	}
	for _, f := range serverFlags {
		if f == "-seed" || f == "-corpus" {
			t.Errorf("server flags %q pass %s to the server", flags, f)
		}
	}
}

// Every probe sentence mines to exactly one fact about its probe
// subject with the polarity the generator chose, so a visibility miss
// can only mean the tier broke its publish-before-ack contract.
func TestProbeSentencesAreGeneratorKnown(t *testing.T) {
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	subjects := map[string]bool{}
	for i := 0; i < 2*len(probeNames); i++ {
		subject, sentence := probeSentence(i)
		subjects[subject] = true
		facts := m.AnalyzeText(sentence)
		want := webfountain.Positive
		if strings.Contains(sentence, "terrible") {
			want = webfountain.Negative
		}
		if len(facts) != 1 || strings.ToLower(facts[0].Subject) != subject || facts[0].Polarity != want {
			t.Errorf("probe %d %q mined to %+v, want one %v fact about %q", i, sentence, facts, want, subject)
		}
	}
	if len(subjects) != len(probeNames) {
		t.Errorf("%d distinct probe subjects, want %d", len(subjects), len(probeNames))
	}
	for _, sp := range specs {
		for _, s := range subjectVocabulary(sp) {
			if subjects[s] {
				t.Errorf("probe subject %q is also a corpus subject of %s", s, sp.name)
			}
		}
	}
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestContractMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []contractMetric             `json:"end_to_end"`
		PerLayer   []contractMetric             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be reported in s, lower is better")
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
}
