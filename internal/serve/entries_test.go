package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestEntryPacked: a served entry holds no pointer, so the chunks that
// hold entries are allocated in spans the collector does not scan, and
// it fits in 12 bytes.
func TestEntryPacked(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("entry", reflect.TypeOf(entry{}))
	if n := unsafe.Sizeof(entry{}); n > 12 {
		t.Errorf("entry is %d bytes, want at most 12", n)
	}
}

// TestAggregatesEntriesProperty folds random facts, in random batches
// through Apply and through ApplyRecovered, into the aggregates, and
// after every publish compares every subject's entries with a naive
// reference: the facts kept as Entry values per lower-cased subject,
// sorted the same way. Every view kept from an earlier step must still
// answer as it did when it was published. The facts name subjects and
// features in and out of ASCII and in several cases, leave features
// empty, and carry a snippet over 64 KiB, an ID over 255 bytes and
// sentence indexes over 65 535. The cells are compared too, with those
// of the same facts applied one at a time. It runs again with texts
// split after a few hundred bytes, so that a batch and a document span
// several.
func TestAggregatesEntriesProperty(t *testing.T) {
	for _, split := range []uint64{maxText, 200} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("split=%d/seed=%d", split, seed), func(t *testing.T) {
				defer func(m uint64) { maxText = m }(maxText)
				maxText = split
				checkEntriesProperty(t, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func checkEntriesProperty(t *testing.T, rng *rand.Rand) {
	subjects := []string{"NR70", "nr70", "Nr70", "Ünïcode Cam", "ünïcode cam", "日本カメラ", "clie", ""}
	features := []string{"", "", "battery life", "Battery Life", "Größe", "画質", "zoom"}
	dates := []string{"2004-03-02", "2004-04-30", "2003-12-01", "bogus", ""}
	docs := []string{"d1", "d2", "camera-review-0001", "Ärger-7", strings.Repeat("long-id-", 40), ""}
	snippets := []string{"The NR70 takes excellent pictures.", "Die Größe stört.", "", "x",
		strings.Repeat("A sentence that goes on and on. ", 2200)} // 70 400 bytes
	sentences := []int{0, 1, 2, 7, 65535, 65536, 1 << 20, 1<<40 + 3}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }

	a, perFact := NewAggregates(), NewAggregates()
	want := map[string][]Entry{}
	type kept struct {
		v    *View
		want map[string][]Entry
	}
	var views []kept
	for step := 0; step < 24; step++ {
		// A batch holds a few documents, each a run of facts; a run now
		// and then repeats a sentence and its snippet, and a document now
		// and then comes back later in the batch.
		var facts []Fact
		var runs [][]Fact
		for d := rng.Intn(5); d >= 0; d-- {
			doc, date := pick(docs), pick(dates)
			var run []Fact
			for k := rng.Intn(12); k >= 0; k-- {
				f := Fact{Subject: pick(subjects), Feature: pick(features), Date: date, Positive: rng.Intn(2) == 0,
					Doc: doc, Sentence: sentences[rng.Intn(len(sentences))], Snippet: pick(snippets)}
				if len(run) > 0 && rng.Intn(3) == 0 {
					f.Sentence, f.Snippet = run[len(run)-1].Sentence, run[len(run)-1].Snippet
				}
				run = append(run, f)
			}
			facts = append(facts, run...)
			runs = append(runs, run)
		}
		for _, f := range facts {
			perFact.Apply([]Fact{f})
		}
		if rng.Intn(3) == 0 {
			staged := make([]Staged, len(runs))
			for i, run := range runs {
				staged[i] = Stage(run)
			}
			a.ApplyRecovered(staged)
		} else {
			a.Apply(facts)
		}
		// The facts are the caller's again: scribbling over them must
		// not change what is served.
		for i := range facts {
			facts[i] = Fact{Subject: "scribbled"}
		}
		for _, run := range runs {
			for _, f := range run {
				s := strings.ToLower(f.Subject)
				pol := "-"
				if f.Positive {
					pol = "+"
				}
				want[s] = append(want[s], Entry{Subject: s, Polarity: pol, Doc: f.Doc, Sentence: f.Sentence,
					Snippet: f.Snippet, Feature: f.Feature})
			}
		}
		snapshot := make(map[string][]Entry, len(want))
		for s, es := range want {
			es = slices.Clone(es)
			slices.SortFunc(es, referenceOrder)
			snapshot[s] = es
		}
		if a.View().Fingerprint() != perFact.View().Fingerprint() {
			t.Fatalf("step %d: the cells differ from those of the facts applied one at a time", step)
		}
		views = append(views, kept{a.View(), snapshot})
		for i, k := range views {
			if i < len(views)-1 && i%4 != step%4 {
				continue // the older views in turn, the newest every step
			}
			names := make([]string, 0, len(k.want))
			for s := range k.want {
				names = append(names, s)
			}
			slices.Sort(names)
			if got := k.v.Subjects(); !slices.Equal(got, names) {
				t.Fatalf("step %d, view %d: subjects %q, want %q", step, i, got, names)
			}
			for _, s := range names {
				if got := k.v.Entries(s); !reflect.DeepEqual(got, k.want[s]) {
					t.Fatalf("step %d, view %d: subject %q serves %d entries that differ from the reference's %d:\n%.2000v\nwant\n%.2000v",
						step, i, s, len(got), len(k.want[s]), got, k.want[s])
				}
			}
		}
	}
}

// referenceOrder is View.Entries' order, written out on the Entry
// fields.
func referenceOrder(a, b Entry) int {
	return cmp.Or(strings.Compare(a.Doc, b.Doc), cmp.Compare(a.Sentence, b.Sentence),
		strings.Compare(a.Polarity, b.Polarity), strings.Compare(a.Feature, b.Feature),
		strings.Compare(a.Snippet, b.Snippet))
}

// BenchmarkViewEntries renders one subject of about 4 000 entries — the
// size of an ingest_bulk subject — as /api/sentiment does: Entries, then
// json.Marshal. Each document has five facts over three sentences.
func BenchmarkViewEntries(b *testing.B) {
	const docs = 800
	features := []string{"", "picture quality", "battery life", "Zoom"}
	var facts []Fact
	for d := 0; d < docs; d++ {
		for k := 0; k < 5; k++ {
			facts = append(facts, Fact{Subject: "NR70", Feature: features[(d+k)%len(features)], Date: "2004-03-02",
				Positive: (d+k)%3 != 0, Doc: fmt.Sprintf("bulk-%06d", d*7919%docs), Sentence: k / 2,
				Snippet: fmt.Sprintf("Sentence %d of document %d says the NR70 takes excellent pictures in low light.", k/2, d)})
		}
	}
	a := NewAggregates()
	for i := 0; i < len(facts); i += 32 * 5 {
		a.Apply(facts[i:min(i+32*5, len(facts))])
	}
	v := a.View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(v.Entries("nr70")); err != nil {
			b.Fatal(err)
		}
	}
}
