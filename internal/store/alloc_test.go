//go:build !race

package store

import (
	"strings"
	"testing"
)

// TestAllocCeilingWALFrame gates the record framing on a put: the XML
// body is encoded straight into the frame, so the record is one buffer
// rather than Marshal's plus a payload copy plus a frame copy, and the
// encoder's 4 KB write buffer is recycled. What remains is the frame and
// encoding/xml's own per-call bookkeeping — for a 6 KB review, 11
// allocations and ≈ 7.5 KB where Marshal-then-frame made 16 and ≈ 30 KB.
// Race instrumentation adds allocations of its own, hence the build tag.
func TestAllocCeilingWALFrame(t *testing.T) {
	text := strings.Repeat("The NR70 takes excellent pictures, and the battery life is great. ", 96)
	e := &Entity{ID: "doc-000001", Source: "review", Title: "NR70", Date: "2004-03-02", Text: text}
	frame := func() {
		if _, err := encodePut(e); err != nil {
			t.Fatal(err)
		}
	}
	frame() // warm the write-buffer pool
	avg := testing.AllocsPerRun(100, frame)
	const ceiling = 12
	if avg > ceiling {
		t.Fatalf("encodePut allocates %.1f/run, ceiling %d", avg, ceiling)
	}
	t.Logf("encodePut: %.1f allocs/run (ceiling %d)", avg, ceiling)
}
