package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"webfountain/internal/durable"
)

// failWriteWAL fails every Write, persisting nothing.
type failWriteWAL struct{ durable.File }

func (w failWriteWAL) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// batchOf builds n entities; every other one gets two annotations, the
// rest none (and so no annotate record).
func batchOf(n int) ([]*Entity, [][]Annotation) {
	ents := make([]*Entity, n)
	anns := make([][]Annotation, n)
	for i := range ents {
		id := fmt.Sprintf("b-%03d", i)
		ents[i] = &Entity{ID: id, Source: "review", Date: "2004-03-02", Text: "The NR70 takes excellent pictures. Body of " + id, Links: []string{"b-000"}}
		if i%2 == 0 {
			anns[i] = []Annotation{
				{Miner: "sentiment", Type: "polarity", Key: "NR70", Value: "+", Feature: "pictures", Sentence: 0, Start: 0, End: 34},
				{Miner: "sentiment", Type: "polarity", Key: id, Value: "-", Sentence: 1, Start: 35, End: 35 + len(id)},
			}
		}
	}
	return ents, anns
}

// recordsOf counts a batch's WAL records: one put per entity and one
// annotate per non-empty annotation list.
func recordsOf(anns [][]Annotation) int {
	n := len(anns)
	for _, a := range anns {
		if len(a) > 0 {
			n++
		}
	}
	return n
}

// TestPutBatchOneCommitCountsRecords: an n-document batch is one commit
// — one write, one sync, Batches += 1 — whose counters count records,
// puts plus annotates: DurabilityStats.Appended, store.wal.appends and
// store.wal.batch.records. Its bytes are exactly what Put then Annotate
// per document log, and a reopen recovers the same entities.
func TestPutBatchOneCommitCountsRecords(t *testing.T) {
	const n = 7
	ents, anns := batchOf(n)
	records := recordsOf(anns)

	batchDir, serialDir := t.TempDir(), t.TempDir()
	st, err := Open(batchDir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Durability()
	appends, batchSum, batchCount := walAppends.Value(), walBatchRecords.Snapshot().Sum, walBatchRecords.Count()
	if err := st.PutBatch(ents, anns); err != nil {
		t.Fatal(err)
	}
	after := st.Durability()
	if d := after.Appended - before.Appended; d != records {
		t.Errorf("Appended += %d, want %d (%d puts + %d annotates)", d, records, n, records-n)
	}
	if d := after.Syncs - before.Syncs; d != 1 {
		t.Errorf("Syncs += %d, want 1", d)
	}
	if d := after.Batches - before.Batches; d != 1 {
		t.Errorf("Batches += %d, want 1", d)
	}
	if d := walAppends.Value() - appends; d != int64(records) {
		t.Errorf("store.wal.appends += %d, want %d", d, records)
	}
	if c, s := walBatchRecords.Count()-batchCount, walBatchRecords.Snapshot().Sum-batchSum; c != 1 || s != int64(records) {
		t.Errorf("store.wal.batch.records observed %d commits summing %d, want 1 commit of %d", c, s, records)
	}
	for i, e := range ents {
		got, ok := st.Get(e.ID)
		if !ok || !reflect.DeepEqual(got.Annotations, anns[i]) || got.Text != e.Text {
			t.Fatalf("%s after the batch: %+v (found %v), want annotations %+v", e.ID, got, ok, anns[i])
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	serial, err := Open(serialDir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ents {
		if err := serial.Put(e); err != nil {
			t.Fatal(err)
		}
		if _, err := serial.Annotate(e.ID, anns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := serial.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(walFiles.Path(batchDir, 0))
	want, _ := os.ReadFile(walFiles.Path(serialDir, 0))
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("batch WAL (%d bytes) differs from the per-call WAL (%d bytes)", len(got), len(want))
	}

	re, err := Open(batchDir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ds := re.Durability(); ds.Replayed != records {
		t.Errorf("replayed %d records, want %d", ds.Replayed, records)
	}
	for i, e := range ents {
		if got, ok := re.Get(e.ID); !ok || !reflect.DeepEqual(got.Annotations, anns[i]) {
			t.Fatalf("%s recovered as %+v (found %v)", e.ID, got, ok)
		}
	}
}

// TestPutBatchThresholdsCountRecords: SyncEvery and CompactEvery are
// thresholds on records, so a commit carrying more records than either
// syncs and compacts, while a smaller one does neither.
func TestPutBatchThresholdsCountRecords(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 4, SyncEvery: 5, CompactEvery: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	small, smallAnns := []*Entity{{ID: "s-1", Text: "x"}, {ID: "s-2", Text: "y"}}, [][]Annotation(nil)
	if err := st.PutBatch(small, smallAnns); err != nil {
		t.Fatal(err)
	}
	if ds := st.Durability(); ds.Appended != 2 || ds.Syncs != 0 || ds.Generation != 0 {
		t.Fatalf("a 2-record commit under SyncEvery 5: %+v, want 2 appended, no sync, no compaction", ds)
	}
	ents, anns := batchOf(3) // 3 puts + 2 annotates: 2 + 5 reaches SyncEvery, not CompactEvery
	if err := st.PutBatch(ents, anns); err != nil {
		t.Fatal(err)
	}
	if ds := st.Durability(); ds.Appended != 7 || ds.Syncs != 1 || ds.Generation != 0 {
		t.Fatalf("after a 5-record commit: %+v, want 7 appended, one sync, no compaction", ds)
	}
	more, moreAnns := batchOf(2) // 2 puts + 1 annotate: 7 + 3 reaches CompactEvery
	more[0].ID, more[1].ID = "m-0", "m-1"
	if err := st.PutBatch(more, moreAnns); err != nil {
		t.Fatal(err)
	}
	if ds := st.Durability(); ds.Generation != 1 || ds.Appended != 0 {
		t.Fatalf("after 10 records under CompactEvery 9: %+v, want one compaction", ds)
	}
	if st.Len() != 7 {
		t.Fatalf("store holds %d entities, want 7", st.Len())
	}
}

// TestPutBatchFailedCommitAppliesNothing: a batch whose write or sync
// fails is refused whole — no record of it is applied, the store
// degrades, and a reopen finds none of it unless it reached the disk.
func TestPutBatchFailedCommitAppliesNothing(t *testing.T) {
	for name, wrap := range map[string]durable.Wrap{
		"write": func(f durable.File) durable.File { return failWriteWAL{f} },
		"sync":  func(f durable.File) durable.File { return &failSyncWAL{inner: f} },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Shards: 4, WrapFile: wrap})
			if err != nil {
				t.Fatal(err)
			}
			ents, anns := batchOf(5)
			if err := st.PutBatch(ents, anns); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("failed commit: err = %v, want ErrReadOnly", err)
			}
			if n := st.Len(); n != 0 {
				t.Fatalf("a refused commit applied %d entities", n)
			}
			if ds := st.Durability(); !ds.Degraded || ds.Appended != 0 || ds.Batches != 0 || ds.Syncs != 0 {
				t.Fatalf("after a refused commit: %+v, want degraded with nothing counted", ds)
			}
			st.Close()
			re, err := Open(dir, Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			// A failed sync leaves the written records in the file: they
			// were never acknowledged, so finding them contradicts nothing.
			if want := map[string]int{"write": 0, "sync": 5}[name]; re.Len() != want {
				t.Fatalf("reopen found %d entities, want %d", re.Len(), want)
			}
		})
	}
}

// TestPutBatchInMemoryAndValidation: an in-memory store applies a batch
// directly, and a malformed batch is refused before anything is
// applied.
func TestPutBatchInMemoryAndValidation(t *testing.T) {
	st := New(4)
	ents, anns := batchOf(4)
	if err := st.PutBatch(ents, anns); err != nil {
		t.Fatal(err)
	}
	for i, e := range ents {
		if got, ok := st.Get(e.ID); !ok || !reflect.DeepEqual(got.Annotations, anns[i]) {
			t.Fatalf("%s: %+v (found %v)", e.ID, got, ok)
		}
	}
	ents[0].Annotations = []Annotation{{Miner: "caller"}} // the store kept its own copy
	if got, _ := st.Get(ents[0].ID); len(got.Annotations) != len(anns[0]) {
		t.Fatalf("a caller's later mutation leaked into the store: %+v", got.Annotations)
	}
	for _, bad := range []struct {
		ents []*Entity
		anns [][]Annotation
	}{
		{[]*Entity{{ID: "ok"}, {ID: ""}}, nil},
		{[]*Entity{{ID: "ok"}, nil}, nil},
		{[]*Entity{{ID: "ok"}}, make([][]Annotation, 2)},
	} {
		fresh := New(1)
		if err := fresh.PutBatch(bad.ents, bad.anns); err == nil || fresh.Len() != 0 {
			t.Fatalf("malformed batch: err = %v, %d entities applied", err, fresh.Len())
		}
	}
}

// TestPutBatchEncodeBuffersBounded: PutBatch encodes each commit into a
// pooled buffer, and a batch whose record is over maxPooledBuf leaves no
// buffer that large in the pool once it is logged.
func TestPutBatchEncodeBuffersBounded(t *testing.T) {
	drain := func() (largest int) {
		for {
			bp, _ := walBufs.Get().(*[]byte)
			if bp == nil {
				return largest
			}
			largest = max(largest, cap(*bp))
		}
	}
	st, err := Open(t.TempDir(), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	drain()
	small, _ := batchOf(3)
	if err := st.PutBatch(small, nil); err != nil {
		t.Fatal(err)
	}
	big := []*Entity{{ID: "big", Text: string(bytes.Repeat([]byte("x"), maxPooledBuf+1))}}
	if err := st.PutBatch(big, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get("big"); !ok || len(got.Text) != maxPooledBuf+1 {
		t.Fatalf("the large entity was not stored whole")
	}
	if n := drain(); n > maxPooledBuf {
		t.Fatalf("a %d-byte encode buffer was kept after a %d-byte entity", n, maxPooledBuf+1)
	}
}
