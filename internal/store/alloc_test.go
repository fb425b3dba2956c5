//go:build !race

package store

import (
	"strings"
	"testing"
)

// TestAllocCeilingWALFrame gates the record framing of a put, an
// annotate and a PutBatch commit: each binary body is sized exactly and
// encoded straight into its frame behind the reserved header and op
// byte, so a record — and a whole batch of them — is one buffer and one
// allocation. Race instrumentation adds allocations of
// its own, hence the build tag.
func TestAllocCeilingWALFrame(t *testing.T) {
	text := strings.Repeat("The NR70 takes excellent pictures, and the battery life is great. ", 96)
	anns := []Annotation{{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "+", Feature: "pictures", Sentence: 1, Start: 66, End: 132}}
	e := &Entity{ID: "doc-000001", Source: "review", Title: "NR70", Date: "2004-03-02", Text: text, Links: []string{"doc-000002"}, Annotations: anns}
	ents, batchAnns := []*Entity{e, e, e}, [][]Annotation{anns, nil, anns}
	const ceiling = 1
	for name, frame := range map[string]func(){
		"encodePut":      func() { encodePut(e) },
		"encodeAnnotate": func() { encodeAnnotate(e.ID, anns) },
		"encodeBatch":    func() { encodeBatch(ents, batchAnns) },
	} {
		avg := testing.AllocsPerRun(100, frame)
		if avg > ceiling {
			t.Errorf("%s allocates %.1f/run, ceiling %d", name, avg, ceiling)
		}
		t.Logf("%s: %.1f allocs/run (ceiling %d)", name, avg, ceiling)
	}
}
