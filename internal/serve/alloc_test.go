//go:build !race

package serve

import (
	"strings"
	"testing"
)

// TestAllocCeilingIngestDecode gates the one-pass ingest body decode as
// the gateway runs it: the read buffer is copied into one string, and
// every field of a body without escapes is a substring of it, so a
// 32-document bulk body costs that copy, the decoder and the growth of
// the document slice — a constant per body, nothing per document, byte
// or key (encoding/json made 208 allocations of the same body). Keys and
// skipped values with escapes are decoded into the decoder's scratch, so
// they add nothing either. Race instrumentation adds allocations of its
// own, hence the build tag.
func TestAllocCeilingIngestDecode(t *testing.T) {
	const docs, ceiling = 32, 12
	plain := string(bulkBody(t, 7, docs))
	escaped := strings.ReplaceAll(plain, `"title":`, `"note\u0073":["a \"quoted\"\nnote"],"t\u0069tle":`)
	for _, c := range []struct{ name, body string }{{"plain", plain}, {"escaped keys and skipped values", escaped}} {
		got, err := decodeIngest(c.body)
		if err != nil || len(got) != docs || got[0].Title == "" {
			t.Fatalf("%s: decoded %d documents, err %v", c.name, len(got), err)
		}
		body := []byte(c.body)
		avg := testing.AllocsPerRun(20, func() { decodeIngest(string(body)) })
		if avg > ceiling {
			t.Errorf("%s: decodeIngest allocates %.1f/run on a %d-document body, ceiling %d", c.name, avg, docs, ceiling)
		}
		t.Logf("%s: decodeIngest: %.1f allocs/run for %d documents, %d bytes (ceiling %d)", c.name, avg, docs, len(body), ceiling)
	}
}

// TestAllocCeilingApply gates Apply's per-fact cost: facts about
// subjects the view already holds, named with capitals as the named
// entity spotter emits them, find their subject through a key folded on
// the stack, so a batch allocates per touched subject (its clone, its
// cells, its entries' growth) and for the new view, never per fact.
func TestAllocCeilingApply(t *testing.T) {
	names := []string{"NR70", "Clearwell Labs", "PetroNova", "Meridian Oil", "MediCure", "BioVanta", "Sony CLIE", "Atlas Energy"}
	facts := make([]Fact, 416)
	for i := range facts {
		facts[i] = Fact{Subject: names[i%len(names)], Feature: "picture quality", Date: "2004-03-02",
			Positive: i%3 != 0, Doc: "doc", Sentence: i, Snippet: "snippet"}
	}
	a := NewAggregates()
	a.Apply(facts)
	ceiling := 12*len(names) + 16
	avg := testing.AllocsPerRun(20, func() { a.Apply(facts) })
	if avg > float64(ceiling) {
		t.Errorf("Apply allocates %.1f/run for %d facts over %d existing subjects, ceiling %d", avg, len(facts), len(names), ceiling)
	}
	t.Logf("Apply: %.1f allocs/run for %d facts over %d subjects (ceiling %d)", avg, len(facts), len(names), ceiling)
}
