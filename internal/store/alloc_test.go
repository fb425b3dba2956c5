//go:build !race

package store

import (
	"strings"
	"testing"
)

// TestAllocCeilingWALFrame gates the record framing of a put, an
// annotate and a PutBatch commit: each binary body is bounded first and
// encoded straight into its frame behind the reserved header and op
// byte, its string table on the stack, so a lone record is one buffer
// and one allocation, and a batch appended to a reused buffer
// (PutBatch's, from its pool) allocates nothing. Race instrumentation
// adds allocations of its own, hence the build tag.
func TestAllocCeilingWALFrame(t *testing.T) {
	text := strings.Repeat("The NR70 takes excellent pictures, and the battery life is great. ", 96)
	anns := []Annotation{{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "+", Feature: "pictures", Sentence: 1, Start: 66, End: 132}}
	e := &Entity{ID: "doc-000001", Source: "review", Title: "NR70", Date: "2004-03-02", Text: text, Links: []string{"doc-000002"}, Annotations: anns}
	ents, batchAnns := []*Entity{e, e, e}, [][]Annotation{anns, nil, anns}
	buf, _ := appendBatch(nil, ents, batchAnns) // warm: the buffer a pool would hand back
	for _, c := range []struct {
		name    string
		frame   func()
		ceiling float64
	}{
		{"encodePut", func() { encodePut(e) }, 1},
		{"encodeAnnotate", func() { encodeAnnotate(e.ID, anns) }, 1},
		{"appendBatch", func() { buf, _ = appendBatch(buf[:0], ents, batchAnns) }, 0},
	} {
		avg := testing.AllocsPerRun(100, c.frame)
		if avg > c.ceiling {
			t.Errorf("%s allocates %.1f/run, ceiling %.0f", c.name, avg, c.ceiling)
		}
		t.Logf("%s: %.1f allocs/run (ceiling %.0f)", c.name, avg, c.ceiling)
	}
}
