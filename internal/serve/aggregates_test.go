package serve

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestSharePercentRounds(t *testing.T) {
	cases := []struct {
		pos, neg, want int
	}{
		{0, 0, 0},
		{1, 0, 100},
		{0, 1, 0},
		{999, 1, 100}, // 99.9% must not floor to 99
		{1, 999, 0},
		{1, 1, 50},
		{2, 1, 67}, // 66.7 rounds up
		{1, 2, 33},
	}
	for _, c := range cases {
		if got := (Counts{c.pos, c.neg}).Share(); got != c.want {
			t.Errorf("Counts{%d, %d}.Share() = %d, want %d", c.pos, c.neg, got, c.want)
		}
	}
}

func TestAggregatesApply(t *testing.T) {
	a := NewAggregates()
	if g := a.View().Generation(); g != 0 {
		t.Fatalf("fresh generation = %d", g)
	}
	gen := a.Apply([]Fact{
		{Subject: "NR70", Feature: "battery life", Date: "2004-07-14", Positive: true},
		{Subject: "nr70", Feature: "battery life", Date: "2004-07-20", Positive: false},
		{Subject: "nr70", Feature: "pictures", Date: "2004-08-01", Positive: true},
		{Subject: "clie", Date: "bogus", Positive: true},
	})
	if gen != 1 {
		t.Fatalf("generation after first batch = %d", gen)
	}
	v := a.View()
	if got := v.Subjects(); !reflect.DeepEqual(got, []string{"clie", "nr70"}) {
		t.Fatalf("Subjects() = %v", got)
	}
	if c := v.Counts("NR70"); c != (Counts{Positive: 2, Negative: 1}) {
		t.Fatalf("Counts(NR70) = %+v", c)
	}
	series := v.Series("nr70")
	want := []Bucket{
		{Month: "2004-07", Counts: Counts{Positive: 1, Negative: 1}},
		{Month: "2004-08", Counts: Counts{Positive: 1}},
	}
	if !reflect.DeepEqual(series, want) {
		t.Fatalf("Series(nr70) = %+v", series)
	}
	// A malformed date lands in totals but no bucket.
	if got := v.Series("clie"); len(got) != 0 {
		t.Fatalf("Series(clie) = %+v, want no buckets", got)
	}
	if c := v.Counts("clie"); c != (Counts{Positive: 1}) {
		t.Fatalf("Counts(clie) = %+v", c)
	}
	aspects := v.Aspects("nr70")
	wantAspects := []AspectCount{
		{Feature: "battery life", Counts: Counts{Positive: 1, Negative: 1}},
		{Feature: "pictures", Counts: Counts{Positive: 1}},
	}
	if !reflect.DeepEqual(aspects, wantAspects) {
		t.Fatalf("Aspects(nr70) = %+v", aspects)
	}
	if tot := v.Totals(); tot != (Counts{Positive: 3, Negative: 1}) {
		t.Fatalf("Totals() = %+v", tot)
	}
	if v.Facts() != 4 {
		t.Fatalf("Facts() = %d", v.Facts())
	}
}

func TestAggregatesEmptyBatchBumpsGeneration(t *testing.T) {
	a := NewAggregates()
	a.Apply([]Fact{{Subject: "x", Positive: true}})
	if gen := a.Apply(nil); gen != 2 {
		t.Fatalf("empty batch generation = %d, want 2", gen)
	}
	// The content is shared with the previous view, not rebuilt.
	if c := a.View().Counts("x"); c != (Counts{Positive: 1}) {
		t.Fatalf("Counts(x) = %+v after empty batch", c)
	}
}

// TestAggregatesNamesSharedUnlessSubjectAdded: a batch that touches only
// subjects the view already holds shares the previous view's sorted name
// list (no rebuild, no sort under the ingest lock); a batch that brings
// a new subject builds a new one, sorted, and leaves the old view's
// alone.
func TestAggregatesNamesSharedUnlessSubjectAdded(t *testing.T) {
	a := NewAggregates()
	a.Apply([]Fact{{Subject: "m", Positive: true}, {Subject: "b", Positive: true}, {Subject: "x"}})
	before := a.View().Subjects()
	a.Apply([]Fact{{Subject: "X", Feature: "zoom", Positive: true}, {Subject: "b"}})
	same := a.View().Subjects()
	if len(same) != 3 || &same[0] != &before[0] {
		t.Fatalf("a batch over existing subjects rebuilt the name list: %v (shared backing array: %v)", same, &same[0] == &before[0])
	}
	if c := a.View().Counts("x"); c != (Counts{Positive: 1, Negative: 1}) {
		t.Fatalf("Counts(x) = %+v, the existing subject was not updated", c)
	}
	a.Apply([]Fact{{Subject: "c", Positive: true}, {Subject: "m"}})
	if got, want := a.View().Subjects(), []string{"b", "c", "m", "x"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Subjects() = %v after a new subject, want %v", got, want)
	}
	if !reflect.DeepEqual(before, []string{"b", "m", "x"}) {
		t.Fatalf("the previous view's name list was mutated: %v", before)
	}
}

// TestAggregatesApplyRecovered: the recovery publish is one snapshot
// whose generation advances by the number of documents recovered, and
// it holds what Apply of the same facts holds, entries included; no
// documents, no publish.
func TestAggregatesApplyRecovered(t *testing.T) {
	a := NewAggregates()
	if gen := a.ApplyRecovered(nil); gen != 0 || a.View().Generation() != 0 {
		t.Fatalf("recovering nothing moved the generation to %d", gen)
	}
	facts := []Fact{
		{Subject: "s", Feature: "Zoom", Date: "2004-01-02", Positive: true, Doc: "d1", Snippet: "good zoom"},
		{Subject: "t", Doc: "d1", Sentence: 2, Snippet: "bad"},
		{Subject: "s", Feature: "zoom", Date: "2004-02-02", Doc: "d2", Snippet: "bad zoom"},
	}
	docs := []Staged{Stage(facts[:2]), Stage(nil), Stage(facts[2:]), Stage(nil), Stage(nil)}
	if gen := a.ApplyRecovered(docs); gen != 5 || a.View().Generation() != 5 {
		t.Fatalf("generation %d after recovering 5 documents, want 5", gen)
	}
	ref := NewAggregates()
	ref.Apply(facts)
	if a.View().Fingerprint() != ref.View().Fingerprint() || a.View().Facts() != 3 {
		t.Fatal("the recovery publish holds different cells than Apply of the same facts")
	}
	if got, want := entryDump(a.View()), entryDump(ref.View()); got != want {
		t.Fatalf("the recovery publish serves\n%s\nApply of the same facts\n%s", got, want)
	}
}

// entryDump renders every subject's entries, for comparing what two
// views serve beyond their fingerprints.
func entryDump(v *View) string {
	var b strings.Builder
	for _, s := range v.Subjects() {
		fmt.Fprintf(&b, "%s: %+v\n", s, v.Entries(s))
	}
	return b.String()
}

func TestAggregatesSnapshotImmutable(t *testing.T) {
	a := NewAggregates()
	a.Apply([]Fact{{Subject: "s", Feature: "f", Date: "2004-01-02", Positive: true}})
	old, oldEntries := a.View(), a.View().Entries("s")
	a.Apply([]Fact{
		{Subject: "s", Feature: "f", Date: "2004-01-03", Positive: false},
		{Subject: "t", Positive: true},
	})
	// The old snapshot must still answer with its old numbers.
	if c := old.Counts("s"); c != (Counts{Positive: 1}) {
		t.Fatalf("old snapshot Counts(s) = %+v, mutated in place", c)
	}
	if len(old.Subjects()) != 1 {
		t.Fatalf("old snapshot Subjects() = %v", old.Subjects())
	}
	if c := a.View().Counts("s"); c != (Counts{Positive: 1, Negative: 1}) {
		t.Fatalf("new snapshot Counts(s) = %+v", c)
	}
	// Entries are append-only on a backing array the views share: a
	// later Apply to the same subject never changes an older view's.
	a.Apply([]Fact{{Subject: "S", Doc: "d2"}})
	mid, midEntries := a.View(), a.View().Entries("s")
	a.Apply([]Fact{{Subject: "s", Doc: "d1", Positive: true}})
	if &a.View().subjects["s"].tail[0] != &mid.subjects["s"].tail[0] {
		t.Fatal("the last Apply copied the entries; the shared-array case went unchecked")
	}
	if got := old.Entries("s"); !reflect.DeepEqual(got, oldEntries) || len(got) != 1 {
		t.Fatalf("old snapshot Entries(s) = %+v, want %+v", got, oldEntries)
	}
	if got := mid.Entries("s"); !reflect.DeepEqual(got, midEntries) || len(got) != 3 {
		t.Fatalf("older snapshot Entries(s) = %+v, want %+v", got, midEntries)
	}
	if got := a.View().Entries("s"); len(got) != 4 || got[0].Polarity != "+" || got[2].Doc != "d1" || got[3].Doc != "d2" {
		t.Fatalf("new snapshot Entries(s) = %+v, want 4 sorted by document", got)
	}
}

// TestAggregatesEntriesAcrossChunks: a subject's entries cross several
// chunk boundaries, one batch at a time, and every View taken on the way
// still serves exactly the entries it was published with, in full; a
// later chunk is never copied into a new array by an append.
func TestAggregatesEntriesAcrossChunks(t *testing.T) {
	a := NewAggregates()
	type seen struct {
		v    *View
		want []Entry
	}
	var views []seen
	doc := 0
	for _, n := range []int{1, 3, entryChunk - 5, 7, entryChunk, 2*entryChunk + 1, 2} {
		facts := make([]Fact, n)
		for i := range facts {
			facts[i] = Fact{Subject: "NR70", Feature: "Battery Life", Date: "2004-03-02", Positive: doc%3 != 0,
				Doc: fmt.Sprintf("d%05d", doc), Sentence: i}
			doc++
		}
		a.Apply(facts)
		views = append(views, seen{a.View(), a.View().Entries("nr70")})
	}
	if got := a.View().subjects["nr70"].numEntries(); got != doc {
		t.Fatalf("%d entries held, want %d", got, doc)
	}
	for i, s := range views {
		got := s.v.Entries("nr70")
		if !reflect.DeepEqual(got, s.want) {
			t.Fatalf("view %d: %d entries now, %d when published", i, len(got), len(s.want))
		}
		for k := 1; k < len(got); k++ {
			if got[k-1].Doc >= got[k].Doc {
				t.Fatalf("view %d: entries out of order at %d", i, k)
			}
		}
	}
	last := a.View().subjects["nr70"]
	for i, c := range last.full {
		if len(c) != entryChunk || cap(c) != entryChunk {
			t.Fatalf("full chunk %d has len %d cap %d, want %d", i, len(c), cap(c), entryChunk)
		}
	}
	if c := a.View().Aspects("nr70"); len(c) != 1 || c[0].Feature != "battery life" || c[0].Total() != doc {
		t.Fatalf("aspects %+v, want one lower-cased feature counting %d", c, doc)
	}
}

// TestAggregatesConcurrentReadersWriters drives readers against a
// stream of Apply batches under the race detector: readers must always
// see a coherent snapshot (totals equal to the sum over subjects).
func TestAggregatesConcurrentReadersWriters(t *testing.T) {
	a := NewAggregates()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := a.View()
				sum := Counts{}
				for _, s := range v.Subjects() {
					c := v.Counts(s)
					sum.Positive += c.Positive
					sum.Negative += c.Negative
				}
				if sum != v.Totals() {
					t.Errorf("torn snapshot: subjects sum %+v != totals %+v", sum, v.Totals())
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		a.Apply([]Fact{
			{Subject: fmt.Sprintf("s%d", i%7), Date: "2004-05-05", Positive: i%3 != 0},
		})
	}
	close(stop)
	wg.Wait()
}
