//go:build !race

package serve

import "testing"

// TestAllocCeilingIngestDecode gates the one-pass ingest body decode: a
// 32-document bulk body costs one string per non-empty field and the
// growth of the document slice, nothing per byte or per key
// (encoding/json made 208 allocations of the same body). Race
// instrumentation adds allocations of its own, hence the build tag.
func TestAllocCeilingIngestDecode(t *testing.T) {
	const docs = 32
	body := bulkBody(t, 7, docs)
	got, err := decodeIngest(body)
	if err != nil || len(got) != docs {
		t.Fatalf("decoded %d documents, err %v", len(got), err)
	}
	const ceiling = 5*docs + 8
	avg := testing.AllocsPerRun(20, func() { decodeIngest(body) })
	if avg > ceiling {
		t.Errorf("decodeIngest allocates %.1f/run on a %d-document body, ceiling %d", avg, docs, ceiling)
	}
	t.Logf("decodeIngest: %.1f allocs/run for %d documents, %d bytes (ceiling %d)", avg, docs, len(body), ceiling)
}
