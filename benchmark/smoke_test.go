package main

import (
	"os"
	"testing"
)

// The whole benchmark at about 1/50 scale: every workload, both modes,
// the real binary, the oracle, the kill -9 restart and the layer
// budget. It keeps the benchmark compiling against the packages it
// reaches into and the oracle green.
func TestSmokeAllWorkloadsBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the real wfserver binary")
	}
	e, _, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllChildren)
	const seconds = 0.4
	for _, sp := range specs {
		res, err := runEndToEnd(e, sp, 7, seconds)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s end to end: correct=%v attempted=%d failed=%d notes=%v", sp.name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", sp.name, m.name, v, ok)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, want %d", sp.name, len(res.Metrics), len(endToEnd))
		}

		traced, err := runTraced(e, sp, 7, seconds)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !traced.Correct || traced.Failed != 0 || traced.Attempted == 0 {
			t.Errorf("%s traced: correct=%v attempted=%d failed=%d notes=%v", sp.name, traced.Correct, traced.Attempted, traced.Failed, traced.Notes)
		}
		for _, m := range perLayer {
			if v, ok := traced.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", sp.name, m.name, v, ok)
			}
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, want %d", sp.name, len(traced.Metrics), len(perLayer))
		}
		if got := traced.Metrics["store.wal_fsyncs_per_doc"].Value; got <= 0 || got > 2 {
			t.Errorf("%s: %v WAL fsyncs per document, want (0, 2]", sp.name, got)
		}
		if _, err := os.Stat(e.outDir + "/trace-" + sp.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", sp.name, err)
		}
	}
}
