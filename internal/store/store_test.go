package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New(4)
	e := &Entity{ID: "doc1", URL: "http://example.com", Source: "web", Title: "T", Text: "hello"}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("doc1")
	if !ok || got.Text != "hello" || got.URL != "http://example.com" {
		t.Errorf("Get = %+v, %v", got, ok)
	}
}

func TestPutRequiresID(t *testing.T) {
	s := New(1)
	if err := s.Put(&Entity{}); err == nil {
		t.Error("empty ID should fail")
	}
	if err := s.Put(nil); err == nil {
		t.Error("nil entity should fail")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New(2)
	if err := s.Put(&Entity{ID: "a", Text: "original"}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("a")
	got.Text = "mutated"
	got.Annotate(Annotation{Miner: "evil"})
	again, _ := s.Get("a")
	if again.Text != "original" || len(again.Annotations) != 0 {
		t.Error("store leaked internal state")
	}
}

func TestPutStoresCopy(t *testing.T) {
	s := New(2)
	e := &Entity{ID: "a", Text: "original"}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	e.Text = "mutated after put"
	got, _ := s.Get("a")
	if got.Text != "original" {
		t.Error("caller mutation leaked into store")
	}
}

func TestDelete(t *testing.T) {
	s := New(2)
	s.Put(&Entity{ID: "a", Text: "x"})
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Error("deleted entity still present")
	}
	s.Delete("missing") // no-op
}

func TestUpdateAtomic(t *testing.T) {
	s := New(2)
	s.Put(&Entity{ID: "a", Text: "x"})
	ok := s.Update("a", func(e *Entity) {
		e.Annotate(Annotation{Miner: "m", Type: "t", Key: "k"})
	})
	if !ok {
		t.Fatal("update failed")
	}
	got, _ := s.Get("a")
	if len(got.Annotations) != 1 {
		t.Errorf("annotations = %+v", got.Annotations)
	}
	if s.Update("missing", func(*Entity) {}) {
		t.Error("update of missing ID should return false")
	}
}

func TestLenAndIDs(t *testing.T) {
	s := New(8)
	for i := 0; i < 20; i++ {
		s.Put(&Entity{ID: fmt.Sprintf("doc%02d", i)})
	}
	if s.Len() != 20 {
		t.Errorf("Len = %d", s.Len())
	}
	ids := s.IDs()
	if len(ids) != 20 || ids[0] != "doc00" || ids[19] != "doc19" {
		t.Errorf("IDs = %v", ids)
	}
}

func TestForEachDeterministicAndComplete(t *testing.T) {
	s := New(4)
	for i := 0; i < 50; i++ {
		s.Put(&Entity{ID: fmt.Sprintf("d%03d", i)})
	}
	var order1, order2 []string
	s.ForEach(func(e *Entity) error { order1 = append(order1, e.ID); return nil })
	s.ForEach(func(e *Entity) error { order2 = append(order2, e.ID); return nil })
	if len(order1) != 50 || strings.Join(order1, ",") != strings.Join(order2, ",") {
		t.Error("iteration not deterministic or incomplete")
	}
}

func TestForEachInShardPartition(t *testing.T) {
	s := New(4)
	for i := 0; i < 40; i++ {
		s.Put(&Entity{ID: fmt.Sprintf("d%03d", i)})
	}
	seen := map[string]int{}
	for i := 0; i < s.NumShards(); i++ {
		err := s.ForEachInShard(i, func(e *Entity) error { seen[e.ID]++; return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 40 {
		t.Errorf("saw %d entities", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("%s visited %d times", id, n)
		}
	}
	if err := s.ForEachInShard(99, func(*Entity) error { return nil }); err == nil {
		t.Error("out-of-range shard should error")
	}
}

func TestForEachStopsOnError(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		s.Put(&Entity{ID: fmt.Sprintf("d%d", i)})
	}
	count := 0
	err := s.ForEach(func(e *Entity) error {
		count++
		if count == 3 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || count != 3 {
		t.Errorf("err=%v count=%d", err, count)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	e := &Entity{
		ID: "doc1", URL: "http://x", Source: "review", Title: "Review of NR70",
		Text: "The NR70 takes excellent pictures.",
	}
	e.Annotate(Annotation{Miner: "spotter", Type: "spot", Key: "nr70", Sentence: 0, Start: 1, End: 2})
	e.Annotate(Annotation{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "+", Sentence: 0, Start: 0, End: 2})
	data, err := e.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `miner="sentiment"`) {
		t.Errorf("xml missing annotation: %s", data)
	}
	back, err := ParseEntity(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != e.ID || back.Text != e.Text || len(back.Annotations) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Annotations[1].Value != "+" {
		t.Errorf("annotation value lost: %+v", back.Annotations[1])
	}
}

func TestParseEntityError(t *testing.T) {
	if _, err := ParseEntity([]byte("not xml <<")); err == nil {
		t.Error("bad xml should fail")
	}
}

func TestAnnotationsBy(t *testing.T) {
	e := &Entity{ID: "a"}
	e.Annotate(Annotation{Miner: "x", Key: "1"})
	e.Annotate(Annotation{Miner: "y", Key: "2"})
	e.Annotate(Annotation{Miner: "x", Key: "3"})
	if got := e.AnnotationsBy("x"); len(got) != 2 {
		t.Errorf("got %+v", got)
	}
	if got := e.AnnotationsBy("z"); len(got) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-d%d", w, i)
				s.Put(&Entity{ID: id, Text: "t"})
				s.Get(id)
				s.Update(id, func(e *Entity) { e.Annotate(Annotation{Miner: "m"}) })
				if i%3 == 0 {
					s.Delete(id)
				}
			}
		}(w)
	}
	wg.Wait()
	// 8 workers * 200 docs, every third deleted: 8 * (200 - 67).
	want := 8 * (200 - 67)
	if got := s.Len(); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

func TestZeroShardClamped(t *testing.T) {
	s := New(0)
	if s.NumShards() != 1 {
		t.Errorf("NumShards = %d", s.NumShards())
	}
	s.Put(&Entity{ID: "a"})
	if _, ok := s.Get("a"); !ok {
		t.Error("single-shard store broken")
	}
}

// Property: put/get round-trips arbitrary IDs and text.
func TestQuickPutGet(t *testing.T) {
	s := New(16)
	f := func(id, text string) bool {
		if id == "" {
			return true
		}
		if err := s.Put(&Entity{ID: id, Text: text}); err != nil {
			return false
		}
		got, ok := s.Get(id)
		return ok && got.Text == text && got.ID == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(4)
	for i := 0; i < 25; i++ {
		e := &Entity{
			ID:     fmt.Sprintf("doc%02d", i),
			URL:    fmt.Sprintf("http://x.example/%d", i),
			Source: "review",
			Title:  fmt.Sprintf("title %d", i),
			Date:   "2004-06-01",
			Text:   fmt.Sprintf("body of document %d with <xml> & special chars", i),
			Links:  []string{"doc00"},
		}
		e.Annotate(Annotation{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "+", Sentence: i})
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(8) // different shard count must not matter
	n, err := restored.Restore(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 || restored.Len() != 25 {
		t.Fatalf("restored %d entities, store has %d", n, restored.Len())
	}
	orig, _ := s.Get("doc07")
	back, _ := restored.Get("doc07")
	if back == nil || back.Text != orig.Text || back.Date != orig.Date ||
		len(back.Links) != 1 || len(back.Annotations) != 1 ||
		back.Annotations[0].Value != "+" {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	s := New(4)
	for i := 0; i < 10; i++ {
		s.Put(&Entity{ID: fmt.Sprintf("d%d", i), Text: "t"})
	}
	var a, b strings.Builder
	if err := s.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("snapshots differ between runs")
	}
}

func TestRestoreMalformed(t *testing.T) {
	s := New(1)
	if _, err := s.Restore(strings.NewReader("<snapshot><entity id=>broken")); err == nil {
		t.Error("malformed snapshot should fail")
	}
	// Empty input restores zero entities without error.
	n, err := s.Restore(strings.NewReader(""))
	if err != nil || n != 0 {
		t.Errorf("empty restore = %d, %v", n, err)
	}
}

func TestHost(t *testing.T) {
	cases := map[string]string{
		"http://reviews.example/page1": "reviews.example",
		"https://a.b.example:8080/x":   "a.b.example",
		"reviews.example/no-scheme":    "reviews.example",
		"":                             "",
		"http://bare.example":          "bare.example",
	}
	for url, want := range cases {
		e := &Entity{URL: url}
		if got := e.Host(); got != want {
			t.Errorf("Host(%q) = %q, want %q", url, got, want)
		}
	}
}
