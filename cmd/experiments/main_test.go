package main

import (
	"bytes"
	"os"
	"testing"

	"webfountain/internal/eval"
)

// TestPaperNumbersGolden gates EXPERIMENTS.md: the full experiment run
// at a fifth of the paper's corpus sizes — feature precision, Tables
// 2–5, the Table 4 confidence intervals, the satisfaction grid — must
// reproduce the committed output byte for byte. Corpora and bootstrap
// are seeded, so a diff means a change moved the paper's numbers; if
// that is intended, regenerate with
//
//	go run ./cmd/experiments -run json -scale 0.2 > cmd/experiments/testdata/scale0.2.golden.json
func TestPaperNumbersGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/scale0.2.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := newExperiments(eval.DefaultSeed, 0.2).runJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiment output moved from the golden file:\n got %s\nwant %s", got.Bytes(), want)
	}
}
