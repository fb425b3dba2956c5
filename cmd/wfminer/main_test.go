package main

import (
	"testing"

	"webfountain/internal/corpus"
)

// The command resolves -corpus through corpus.Named; these pin the
// names it accepts.

func TestPickCorpusKnownNames(t *testing.T) {
	for _, name := range []string{"camera", "music", "petroleum", "pharma", "news", "bboard"} {
		gen, subjects, err := corpus.Named(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(subjects) == 0 {
			t.Errorf("%s: no subjects", name)
		}
		docs := gen(1, 3)
		if len(docs) != 3 {
			t.Errorf("%s: generated %d docs", name, len(docs))
		}
	}
}

func TestPickCorpusUnknown(t *testing.T) {
	if _, _, err := corpus.Named("nope"); err == nil {
		t.Error("unknown corpus should fail")
	}
}
