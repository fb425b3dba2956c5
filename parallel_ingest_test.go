package webfountain

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"webfountain/internal/corpus"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

// ingestBatch converts a generated corpus into an ingest batch.
func ingestBatch(seed int64, n int) []Document {
	generated := corpus.DigitalCameraReviews(seed, n)
	batch := make([]Document, len(generated))
	for i := range generated {
		batch[i] = Document{
			Source: "review",
			Title:  generated[i].Title,
			Date:   generated[i].Date,
			Text:   generated[i].Text(),
		}
	}
	return batch
}

// TestParallelIngestDeterministic: a batch ingested by the worker pool
// must be indistinguishable from the same batch ingested serially —
// identical generated IDs in input order, and byte-identical answers to
// term and phrase queries.
func TestParallelIngestDeterministic(t *testing.T) {
	batch := ingestBatch(3, 120)

	serial := NewPlatform(PlatformConfig{IngestWorkers: 1})
	serialIDs, err := serial.Ingest(append([]Document(nil), batch...))
	if err != nil {
		t.Fatal(err)
	}

	parallel := NewPlatform(PlatformConfig{IngestWorkers: 8})
	parallelIDs, err := parallel.Ingest(append([]Document(nil), batch...))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serialIDs, parallelIDs) {
		t.Fatalf("generated IDs diverge:\nserial   %v\nparallel %v", serialIDs, parallelIDs)
	}
	if s, p := serial.NumEntities(), parallel.NumEntities(); s != p {
		t.Fatalf("entity counts diverge: serial %d, parallel %d", s, p)
	}
	queries := [][]string{
		{"camera"}, {"battery"}, {"battery", "life"}, {"excellent", "pictures"},
	}
	for _, q := range queries {
		s, p := serial.SearchAll(q...), parallel.SearchAll(q...)
		if !reflect.DeepEqual(s, p) {
			t.Errorf("SearchAll(%v) diverges:\nserial   %v\nparallel %v", q, s, p)
		}
	}
	phrases := [][]string{{"battery", "life"}, {"the", "camera"}}
	for _, ph := range phrases {
		s, p := serial.SearchPhrase(ph...), parallel.SearchPhrase(ph...)
		if !reflect.DeepEqual(s, p) {
			t.Errorf("SearchPhrase(%v) diverges:\nserial   %v\nparallel %v", ph, s, p)
		}
	}
}

// TestParallelIngestFirstErrorPrefix: when every put fails (a closed
// durable platform), the pool must report the earliest failing document
// and return only the IDs ingested before it — here, none.
func TestParallelIngestFirstErrorPrefix(t *testing.T) {
	p, err := OpenPlatform(PlatformConfig{DataDir: t.TempDir(), IngestWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := p.Ingest(ingestBatch(5, 64))
	if err == nil {
		t.Fatal("ingest into a closed platform succeeded")
	}
	// Document 0's put must fail, so the successful prefix is empty —
	// regardless of which workers claimed later documents first.
	if len(ids) != 0 {
		t.Fatalf("got %d ids before the first error, want 0: %v", len(ids), ids)
	}
}

// TestParallelIngestSerialFallbacks: worker counts are clamped to the
// batch size, so tiny batches and explicit serial configs share the
// same path and contract.
func TestParallelIngestSerialFallbacks(t *testing.T) {
	for _, workers := range []int{0, 1, 16} {
		p := NewPlatform(PlatformConfig{IngestWorkers: workers})
		ids, err := p.Ingest(ingestBatch(1, 3))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(ids) != 3 || p.NumEntities() != 3 {
			t.Fatalf("workers=%d: ids=%v entities=%d", workers, ids, p.NumEntities())
		}
	}
}

// TestConcurrentIngestSearchDelete is the -race stress test at platform
// level: batches ingest while other goroutines search and delete.
func TestConcurrentIngestSearchDelete(t *testing.T) {
	p := NewPlatform(PlatformConfig{IngestWorkers: 4})
	const batches = 6

	var wg sync.WaitGroup
	idCh := make(chan string, 256)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(idCh)
		for b := 0; b < batches; b++ {
			ids, err := p.Ingest(ingestBatch(int64(b+10), 20))
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			for _, id := range ids {
				idCh <- id
			}
		}
	}()

	// Deleter: removes every fourth ingested document as IDs stream in.
	deleted := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for id := range idCh {
			if i%4 == 0 {
				if err := p.Delete(id); err != nil {
					t.Errorf("delete %s: %v", id, err)
					return
				}
				deleted++
			}
			i++
		}
	}()

	// Searchers: run all query shapes against the moving index.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				p.SearchAll("camera", "battery")
				p.SearchPhrase("battery", "life")
				p.NumEntities()
			}
		}()
	}
	wg.Wait()

	if want := batches*20 - deleted; p.NumEntities() != want {
		t.Fatalf("entities = %d, want %d (deleted %d)", p.NumEntities(), want, deleted)
	}
}

// TestParseGeneratedID pins the manual parse against the formats the
// platform actually generates, plus the near-misses Sscanf used to
// accept, and generatedID against the "doc-%06d" it stands for.
func TestParseGeneratedID(t *testing.T) {
	cases := []struct {
		id   string
		n    int64
		want bool
	}{
		{"doc-000001", 1, true},
		{"doc-000120", 120, true},
		{"doc-9", 9, true},
		{fmt.Sprintf("doc-%06d", 987654), 987654, true},
		{"doc-", 0, false},
		{"doc", 0, false},
		{"doc-12x", 0, false}, // trailing junk: not a generated ID
		{"doc-1 2", 0, false}, // embedded space
		{"review-12", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		n, ok := parseGeneratedID(c.id)
		if ok != c.want || (ok && n != c.n) {
			t.Errorf("parseGeneratedID(%q) = (%d, %v), want (%d, %v)", c.id, n, ok, c.n, c.want)
		}
	}
	for _, n := range []int64{1, 120, 987654, 999999, 1000000, 12345678901} {
		id := generatedID(n)
		if want := fmt.Sprintf("doc-%06d", n); id != want {
			t.Errorf("generatedID(%d) = %q, want %q", n, id, want)
		}
		if got, ok := parseGeneratedID(id); !ok || got != n {
			t.Errorf("parseGeneratedID(generatedID(%d)) = (%d, %v)", n, got, ok)
		}
	}
}

// TestReindexAdvancesIDGeneratorPastRecovered: after recovery, freshly
// generated IDs must not collide with recovered generated IDs even when
// the recovered maximum was written by a parallel ingest.
func TestReindexAdvancesIDGeneratorPastRecovered(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPlatform(PlatformConfig{DataDir: dir, IngestWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	firstIDs, err := p.Ingest(ingestBatch(2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenPlatform(PlatformConfig{DataDir: dir, IngestWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	moreIDs, err := rec.Ingest(ingestBatch(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(firstIDs))
	for _, id := range firstIDs {
		seen[id] = true
	}
	for _, id := range moreIDs {
		if seen[id] {
			t.Fatalf("recovered platform reissued ID %s", id)
		}
	}
	if got := rec.NumEntities(); got != 40 {
		t.Fatalf("entities after recovery+ingest = %d, want 40", got)
	}
	// The recovered index must answer queries over both generations.
	if len(rec.SearchAll("camera")) == 0 {
		t.Fatal("recovered index answers nothing")
	}
}

// TestIngestLendsOneP: while any ingest runs, the process has exactly one
// P more than it had before the first of them entered, however many run
// at once, and the last one to leave gives it back.
func TestIngestLendsOneP(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	p := NewPlatform(PlatformConfig{IngestWorkers: 1})
	inside, release := make(chan int), make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			docs := []Document{{ID: fmt.Sprintf("lend-%d", c), Text: "The NR70 is great."}}
			_, err := p.ingest(context.Background(), docs, func(*ingestArena, int, string, string, []tokenize.Token) []store.Annotation {
				inside <- runtime.GOMAXPROCS(0)
				<-release
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(c)
	}
	for c := 0; c < 3; c++ {
		if got := <-inside; got != before+1 {
			t.Errorf("GOMAXPROCS %d inside ingest, want %d", got, before+1)
		}
	}
	close(release)
	wg.Wait()
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS %d after every ingest left, want %d back", got, before)
	}
	if n := p.NumEntities(); n != 3 {
		t.Fatalf("%d documents stored, want 3", n)
	}
}

// raceCtx passes the first two document checks and fails every check
// after them, except that the third check waits for the fourth and the
// fourth passes. With two workers document 0 always passes and the cut
// falls at 1, 2 or 3; when the third check is not the last of the three
// documents to pass, the batch is cut with documents after the cut
// already analyzed.
type raceCtx struct {
	context.Context
	mu     sync.Mutex
	calls  int
	passed chan struct{}
}

func (c *raceCtx) Err() error {
	c.mu.Lock()
	n := c.calls
	c.calls++
	c.mu.Unlock()
	switch {
	case n < 2:
		return nil
	case n == 2:
		<-c.passed
	case n == 3:
		close(c.passed)
		return nil
	}
	return context.DeadlineExceeded
}

// TestParallelIngestStoresNothingPastTheCut: with several workers a
// deadline cut can find documents after it already analyzed; they are
// dropped with the rest, so the store holds exactly the acked prefix.
func TestParallelIngestStoresNothingPastTheCut(t *testing.T) {
	pastCut := 0
	for round := 0; round < 32; round++ {
		p := NewPlatform(PlatformConfig{IngestWorkers: 2})
		docs := ingestBatch(int64(round), 6)
		for i := range docs {
			docs[i].ID = fmt.Sprintf("r%d-%d", round, i)
		}
		var mu sync.Mutex
		analyzed := map[int]bool{}
		ids, err := p.ingest(&raceCtx{Context: context.Background(), passed: make(chan struct{})}, docs,
			func(_ *ingestArena, i int, _, _ string, _ []tokenize.Token) []store.Annotation {
				mu.Lock()
				analyzed[i] = true
				mu.Unlock()
				return []store.Annotation{{Miner: MinerName, Type: "polarity", Key: "x", Value: "+"}}
			})
		if !errors.Is(err, context.DeadlineExceeded) || len(ids) < 1 || len(ids) > 3 {
			t.Fatalf("round %d: acked %v, err %v; want a cut at 1, 2 or 3", round, ids, err)
		}
		for i := len(ids); i < len(docs); i++ {
			if analyzed[i] {
				pastCut++
			}
		}
		if got := p.internalStore().IDs(); !sameStrings(got, ids) {
			t.Fatalf("round %d: store holds %v, acked %v", round, got, ids)
		}
	}
	if pastCut == 0 {
		t.Fatal("no round analyzed a document past its cut; the test exercised nothing")
	}
}
