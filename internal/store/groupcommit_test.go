package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"webfountain/internal/durable"
)

// slowSyncWAL delays every Sync, widening the window in which other
// writers queue behind the batch leader — the forcing function for the
// coalescing assertions below.
type slowSyncWAL struct {
	inner durable.File
	delay time.Duration
}

func (w *slowSyncWAL) Write(p []byte) (int, error) { return w.inner.Write(p) }
func (w *slowSyncWAL) Sync() error {
	time.Sleep(w.delay)
	return w.inner.Sync()
}
func (w *slowSyncWAL) Close() error { return w.inner.Close() }

// failSyncWAL fails every Sync after passing the data through, the
// shape of a disk that accepts writes but cannot make them durable.
type failSyncWAL struct {
	inner durable.File
}

func (w *failSyncWAL) Write(p []byte) (int, error) { return w.inner.Write(p) }
func (w *failSyncWAL) Sync() error                 { return fmt.Errorf("injected sync failure") }
func (w *failSyncWAL) Close() error                { return w.inner.Close() }

// tornBatchWAL writes normally until the Nth Write call, which persists
// only the first half of the buffer and then errors — a crash in the
// middle of a group-commit batch append.
type tornBatchWAL struct {
	inner  durable.File
	failOn int
	writes int
}

func (w *tornBatchWAL) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == w.failOn {
		n, _ := w.inner.Write(p[:len(p)/2])
		return n, fmt.Errorf("injected torn batch write")
	}
	return w.inner.Write(p)
}
func (w *tornBatchWAL) Sync() error  { return w.inner.Sync() }
func (w *tornBatchWAL) Close() error { return w.inner.Close() }

// groupPut runs writers×perWriter concurrent puts and returns the IDs
// whose puts were acknowledged.
func groupPut(t *testing.T, st *Store, writers, perWriter int) []string {
	t.Helper()
	var (
		mu    sync.Mutex
		acked []string
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-doc-%03d", w, i)
				err := st.Put(&Entity{ID: id, Source: "review", Text: "body of " + id})
				if err == nil {
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				} else if !errors.Is(err, ErrReadOnly) {
					t.Errorf("put %s: unexpected error class: %v", id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	return acked
}

// TestGroupCommitConcurrentPutsDurableAndBatched: every concurrent put
// is acknowledged and recoverable, and the fsync count proves that
// batches actually coalesced — fewer syncs than records.
func TestGroupCommitConcurrentPutsDurableAndBatched(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{
		Shards:   4,
		WrapFile: func(w durable.File) durable.File { return &slowSyncWAL{inner: w, delay: 2 * time.Millisecond} },
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := groupPut(t, st, 8, 25)
	if len(acked) != 200 {
		t.Fatalf("acked %d of 200 puts", len(acked))
	}
	ds := st.Durability()
	if ds.Appended != 200 {
		t.Fatalf("Appended = %d, want 200", ds.Appended)
	}
	if ds.Batches < 1 || ds.Batches >= 200 {
		t.Fatalf("Batches = %d: want at least one multi-record batch out of 200 records", ds.Batches)
	}
	if ds.Syncs != ds.Batches {
		t.Fatalf("Syncs = %d, Batches = %d: group commit must sync exactly once per batch", ds.Syncs, ds.Batches)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 200 {
		t.Fatalf("recovered %d entities, want 200", rec.Len())
	}
	for _, id := range acked {
		if _, ok := rec.Get(id); !ok {
			t.Fatalf("acknowledged put %s lost", id)
		}
	}
}

// TestGroupCommitSyncFailureFailsWholeBatchUnapplied: when the batch
// fsync fails, every writer in the batch gets ErrReadOnly, none of the
// mutations is applied, and the store stays degraded for later writes.
func TestGroupCommitSyncFailureFailsWholeBatchUnapplied(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{
		Shards:   4,
		WrapFile: func(w durable.File) durable.File { return &failSyncWAL{inner: w} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	acked := groupPut(t, st, 4, 5)
	if len(acked) != 0 {
		t.Fatalf("%d puts acked despite failing syncs: %v", len(acked), acked)
	}
	// Failed batches must not have been applied: the in-memory store is
	// exactly the (empty) recovered state.
	if st.Len() != 0 {
		t.Fatalf("store applied %d entities from failed batches", st.Len())
	}
	if deg, reason := st.Degraded(); !deg || reason == "" {
		t.Fatalf("store not degraded after batch sync failure (deg=%v reason=%q)", deg, reason)
	}
	if err := st.Put(&Entity{ID: "late", Text: "x"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after degradation: %v", err)
	}
}

// TestGroupCommitTornBatchWriteCrashRecovery: a torn write in the
// middle of a batch append degrades the store; recovery truncates the
// torn tail and surfaces every acknowledged record — plus possibly a
// prefix of the failed batch, whose members were never acked, so no ack
// is ever contradicted.
func TestGroupCommitTornBatchWriteCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{
		Shards:   4,
		WrapFile: func(w durable.File) durable.File { return &tornBatchWAL{inner: w, failOn: 4} },
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := groupPut(t, st, 4, 10)
	if len(acked) == 0 {
		t.Fatal("no puts acked before the injected torn write")
	}
	if len(acked) == 40 {
		t.Fatal("torn write never fired: all 40 puts acked")
	}
	if deg, _ := st.Degraded(); !deg {
		t.Fatal("store not degraded after torn batch write")
	}
	st.Close() // crash: the degraded close does not repair the torn tail

	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for _, id := range acked {
		if _, ok := rec.Get(id); !ok {
			t.Fatalf("acknowledged put %s lost to torn batch write", id)
		}
	}
	// Recovery may surface unacked members of the torn batch whose
	// records landed before the tear, but nothing else — and the torn
	// tail itself must have been truncated, leaving a healthy store.
	if got := rec.Len(); got < len(acked) || got > 40 {
		t.Fatalf("recovered %d entities, acked %d of 40", got, len(acked))
	}
	if deg, reason := rec.Degraded(); deg {
		t.Fatalf("recovered store degraded: %s", reason)
	}
}

// TestGroupCommitWindowZeroStillBatches: nobody waits for followers;
// writers arriving while a commit is inside its append+fsync form the
// next batch — coalescing is the natural consequence of the fsync.
func TestGroupCommitWindowZeroStillBatches(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{
		Shards:   4,
		WrapFile: func(w durable.File) durable.File { return &slowSyncWAL{inner: w, delay: 2 * time.Millisecond} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	acked := groupPut(t, st, 8, 10)
	if len(acked) != 80 {
		t.Fatalf("acked %d of 80 puts", len(acked))
	}
	ds := st.Durability()
	if ds.Batches >= 80 {
		t.Fatalf("Batches = %d out of 80 records: no coalescing happened", ds.Batches)
	}
}

// TestGroupCommitSerialWriterMatchesPerRecordContract: a single writer
// sees the exact per-record behavior — one record, one batch, one
// sync, ack after durable.
func TestGroupCommitSerialWriterMatchesPerRecordContract(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Put(&Entity{ID: fmt.Sprintf("doc-%02d", i), Text: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	ds := st.Durability()
	if ds.Batches != 10 || ds.Syncs != 10 || ds.Appended != 10 {
		t.Fatalf("serial group commit: batches=%d syncs=%d appended=%d, want 10/10/10",
			ds.Batches, ds.Syncs, ds.Appended)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 10 {
		t.Fatalf("recovered %d entities, want 10", rec.Len())
	}
}

// TestGroupCommitCloseWaitsForInFlightBatch: Close must let an
// in-flight batch finish (its writers were promised durable acks), not
// yank the WAL handle out from under the leader.
func TestGroupCommitCloseWaitsForInFlightBatch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{
		Shards:   4,
		WrapFile: func(w durable.File) durable.File { return &slowSyncWAL{inner: w, delay: 5 * time.Millisecond} },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = st.Put(&Entity{ID: fmt.Sprintf("doc-%02d", i), Text: "t"})
		}(i)
	}
	time.Sleep(time.Millisecond) // let the first commit start its slow sync
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	acked := 0
	for i, err := range errs {
		if err == nil {
			acked++
		} else if !errors.Is(err, ErrReadOnly) && err.Error() != "store: closed" {
			t.Errorf("put %d: unexpected error: %v", i, err)
		}
	}
	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() < acked {
		t.Fatalf("recovered %d entities but %d puts were acked before Close", rec.Len(), acked)
	}
}

// TestGroupCommitBatchIsArrivalsDuringPreviousCommit: a batch is exactly
// the writers that arrived while the previous commit was in flight, so
// batching depends on the arrival pattern, not on goroutine scheduling —
// with two writers at most one can arrive during a commit, and every
// record gets a commit (and an fsync) of its own.
func TestGroupCommitBatchIsArrivalsDuringPreviousCommit(t *testing.T) {
	st, err := Open(t.TempDir(), Options{
		Shards:   4,
		WrapFile: func(w durable.File) durable.File { return &slowSyncWAL{inner: w, delay: 200 * time.Microsecond} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if acked := groupPut(t, st, 2, 50); len(acked) != 100 {
		t.Fatalf("acked %d of 100 puts", len(acked))
	}
	if ds := st.Durability(); ds.Batches != 100 || ds.Syncs != 100 {
		t.Fatalf("two writers: batches=%d syncs=%d, want 100/100", ds.Batches, ds.Syncs)
	}
}
