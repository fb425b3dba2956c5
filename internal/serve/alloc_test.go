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

// TestAllocCeilingApply gates Apply's per-fact cost: facts about
// subjects the view already holds, named with capitals as the named
// entity spotter emits them, find their subject through a key folded on
// the stack, so a batch allocates per touched subject (its clone, its
// maps, its entries' growth) and for the new view, never per fact.
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
