package store

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"webfountain/internal/durable"
)

// scriptOp is one mutation in a scripted workload, applied identically to
// a durable store (logging to disk) and an in-memory reference.
type scriptOp struct {
	kind string // "put", "del", "ann"
	e    *Entity
	id   string
	anns []Annotation
}

// crashScript is the workload every recovery test replays: puts,
// overwrites, deletes and annotations, with short bodies so the byte-
// level truncation matrix stays fast.
func crashScript() []scriptOp {
	ann := func(key, val string, sent int) Annotation {
		return Annotation{Miner: "sentiment", Type: "polarity", Key: key, Value: val, Sentence: sent, Start: 0, End: 2}
	}
	return []scriptOp{
		{kind: "put", e: &Entity{ID: "e1", Source: "review", Date: "2004-06-01", Text: "alpha alpha"}},
		{kind: "put", e: &Entity{ID: "e2", Source: "web", Text: "beta", Links: []string{"e1"}}},
		{kind: "ann", id: "e1", anns: []Annotation{ann("nr70", "+", 0)}},
		{kind: "put", e: &Entity{ID: "e3", Source: "news", Date: "2004-07-02", Text: "gamma gamma"}},
		{kind: "del", id: "e2"},
		{kind: "put", e: &Entity{ID: "e2", Source: "web", Text: "beta rewritten"}},
		{kind: "ann", id: "e3", anns: []Annotation{ann("d100", "-", 1), ann("d100", "+", 2)}},
		{kind: "put", e: &Entity{ID: "e4", Text: "delta"}},
		{kind: "ann", id: "e1", anns: []Annotation{ann("nr70", "-", 3)}},
		{kind: "del", id: "e4"},
		{kind: "put", e: &Entity{ID: "e5", URL: "http://x.example/5", Text: "epsilon"}},
		{kind: "put", e: &Entity{ID: "e1", Source: "review", Text: "alpha replaced"}},
	}
}

// applyOp applies one script op, failing the test on unexpected errors.
func applyOp(t *testing.T, s *Store, op scriptOp) {
	t.Helper()
	switch op.kind {
	case "put":
		if err := s.Put(op.e); err != nil {
			t.Fatalf("put %s: %v", op.e.ID, err)
		}
	case "del":
		if err := s.Delete(op.id); err != nil {
			t.Fatalf("delete %s: %v", op.id, err)
		}
	case "ann":
		if _, err := s.Annotate(op.id, op.anns); err != nil {
			t.Fatalf("annotate %s: %v", op.id, err)
		}
	}
}

// referenceAfter replays the first n script ops into an in-memory store.
func referenceAfter(t *testing.T, ops []scriptOp, n int) *Store {
	t.Helper()
	ref := New(4)
	for _, op := range ops[:n] {
		applyOp(t, ref, op)
	}
	return ref
}

// requireEqualStores asserts two stores hold identical entities.
func requireEqualStores(t *testing.T, label string, got, want *Store) {
	t.Helper()
	gotIDs, wantIDs := got.IDs(), want.IDs()
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("%s: IDs = %v, want %v", label, gotIDs, wantIDs)
	}
	for _, id := range wantIDs {
		g, _ := got.Get(id)
		w, _ := want.Get(id)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: entity %s = %+v, want %+v", label, id, g, w)
		}
	}
}

// runScript runs the whole script against a fresh durable store in dir,
// recording the WAL size after each acknowledged op, and returns the WAL
// bytes plus those per-op boundaries.
func runScript(t *testing.T, dir string) (walBytes []byte, boundaries []int) {
	t.Helper()
	st, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal-00000000.log")
	for _, op := range crashScript() {
		applyOp(t, st, op)
		fi, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, int(fi.Size()))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err = os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) != boundaries[len(boundaries)-1] {
		t.Fatalf("wal is %d bytes, last boundary %d", len(walBytes), boundaries[len(boundaries)-1])
	}
	return walBytes, boundaries
}

// TestCrashRecoveryMatrix is the acceptance matrix: the WAL is cut off at
// every possible byte offset — every torn-write point a crash could leave
// behind — and recovery must restore exactly the acknowledged prefix of
// operations: nothing acknowledged lost, no torn record surfaced.
func TestCrashRecoveryMatrix(t *testing.T) {
	ops := crashScript()
	walBytes, boundaries := runScript(t, t.TempDir())

	for cut := 0; cut <= len(walBytes); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(dir, Options{Shards: 4})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		acked := 0
		for acked < len(boundaries) && boundaries[acked] <= cut {
			acked++
		}
		label := fmt.Sprintf("cut=%d acked=%d", cut, acked)
		requireEqualStores(t, label, rec, referenceAfter(t, ops, acked))

		ds := rec.Durability()
		if ds.Replayed != countApplied(ops[:acked]) {
			t.Fatalf("%s: replayed %d records, want %d", label, ds.Replayed, countApplied(ops[:acked]))
		}
		wantTrunc := cut
		if acked > 0 {
			wantTrunc = cut - boundaries[acked-1]
		}
		if ds.TruncatedBytes != wantTrunc {
			t.Fatalf("%s: truncated %d bytes, want %d", label, ds.TruncatedBytes, wantTrunc)
		}
		if ds.Quarantined != 0 {
			t.Fatalf("%s: quarantined %d records from a pure truncation", label, ds.Quarantined)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}

		// A second crash at the same point must recover identically: the
		// torn tail was physically truncated, so the reopened store sees
		// a clean log.
		if cut%7 == 0 {
			again, err := Open(dir, Options{Shards: 4})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			requireEqualStores(t, label+" reopen", again, referenceAfter(t, ops, acked))
			if ds2 := again.Durability(); ds2.TruncatedBytes != 0 {
				t.Fatalf("%s: reopen truncated %d more bytes", label, ds2.TruncatedBytes)
			}
			again.Close()
		}
	}
}

// countApplied counts the script ops that produce a WAL record (all of
// them — annotates in the script always target live entities).
func countApplied(ops []scriptOp) int { return len(ops) }

// TestRecoveryAppendsAfterCrash proves the store is writable after a
// torn-tail recovery: new acknowledged ops land after the truncation
// point and survive the next reopen.
func TestRecoveryAppendsAfterCrash(t *testing.T) {
	ops := crashScript()
	walBytes, boundaries := runScript(t, t.TempDir())

	cut := boundaries[5] + 3 // mid-record: op 6 torn, ops 0..5 acked
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), walBytes[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Put(&Entity{ID: "post-crash", Text: "written after recovery"}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	want := referenceAfter(t, ops, 6)
	if err := want.Put(&Entity{ID: "post-crash", Text: "written after recovery"}); err != nil {
		t.Fatal(err)
	}
	requireEqualStores(t, "post-crash append", again, want)
}

// walRecordOffsets parses record boundaries out of raw WAL bytes.
func walRecordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off < len(data) {
		offs = append(offs, off)
		_, _, n, err := decodeWALRecord(data[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		off += n
	}
	return offs
}

// TestBitRotQuarantinesRecord flips a byte inside one complete record:
// recovery must quarantine exactly that record and still apply every
// other, rather than aborting or truncating the rest of the log.
func TestBitRotQuarantinesRecord(t *testing.T) {
	ops := crashScript()
	walBytes, _ := runScript(t, t.TempDir())
	offs := walRecordOffsets(t, walBytes)

	const victim = 6 // the two-annotation record for e3
	dir := t.TempDir()
	rotted := append([]byte(nil), walBytes...)
	rotted[offs[victim]+walHeaderSize+2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	want := New(4)
	for i, op := range ops {
		if i == victim {
			continue
		}
		applyOp(t, want, op)
	}
	requireEqualStores(t, "bit rot", rec, want)

	ds := rec.Durability()
	if ds.Quarantined != 1 {
		t.Fatalf("quarantined %d records, want 1", ds.Quarantined)
	}
	if ds.Replayed != len(ops)-1 {
		t.Fatalf("replayed %d records, want %d", ds.Replayed, len(ops)-1)
	}
	q, err := os.ReadFile(filepath.Join(dir, "quarantine.log"))
	if err != nil {
		t.Fatalf("quarantine.log: %v", err)
	}
	if len(q) == 0 {
		t.Fatal("quarantine.log is empty")
	}
}

// TestUnknownOpRefusesOpen: a checksum-valid record with an op this
// binary does not know was written by a newer one. Open must fail and
// name it, leaving the log untouched and quarantining nothing, rather
// than open a store that silently lacks the record's data.
func TestUnknownOpRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Entity{ID: "doc-01", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := walFiles.Path(dir, 0)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wal := append(valid, encodeWALRecord(99, []byte("from a newer version"))...)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{Shards: 2}); err == nil {
		t.Fatal("Open succeeded over a record of unknown op 99")
	} else if !errors.Is(err, errUnknownOp) || !strings.Contains(err.Error(), "op 99") ||
		!strings.Contains(err.Error(), fmt.Sprintf("offset %d", len(valid))) {
		t.Fatalf("Open error %q should name op 99 and offset %d", err, len(valid))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wal) {
		t.Fatalf("refused open changed the log: %d bytes, want %d", len(got), len(wal))
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine.log")); !os.IsNotExist(err) {
		t.Fatalf("refused open wrote quarantine.log (stat: %v)", err)
	}
}

// TestCompactAndRecover: compaction folds the log into a checksummed
// snapshot; recovery loads the snapshot and replays only the records
// appended since.
func TestCompactAndRecover(t *testing.T) {
	ops := crashScript()
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:6] {
		applyOp(t, st, op)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[6:] {
		applyOp(t, st, op)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "snapshot-00000001.xml")); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	// The previous generation's WAL is kept as fallback history.
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000.log")); err != nil {
		t.Fatalf("previous wal pruned too early: %v", err)
	}

	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireEqualStores(t, "compacted", rec, referenceAfter(t, ops, len(ops)))
	ds := rec.Durability()
	if !ds.SnapshotLoaded || ds.Generation != 1 {
		t.Fatalf("stats = %+v, want snapshot loaded at gen 1", ds)
	}
	if ds.Replayed != len(ops)-6 {
		t.Fatalf("replayed %d, want %d (post-compaction records only)", ds.Replayed, len(ops)-6)
	}
}

// TestCompactPrunesOldGenerations: a second compaction removes files
// older than the previous generation.
func TestCompactPrunesOldGenerations(t *testing.T) {
	ops := crashScript()
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:4] {
		applyOp(t, st, op)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[4:8] {
		applyOp(t, st, op)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[8:] {
		applyOp(t, st, op)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "wal-00000000.log")); !os.IsNotExist(err) {
		t.Error("gen-0 wal should be pruned after second compaction")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-00000001.log")); err != nil {
		t.Errorf("gen-1 wal (previous generation) should be kept: %v", err)
	}

	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireEqualStores(t, "twice compacted", rec, referenceAfter(t, ops, len(ops)))
}

// TestHeaderRotQuarantinesTailAndDegrades: a bit flip in a record's
// length prefix destroys framing for every record after it. Recovery
// must not silently truncate that tail — the acked records it holds
// would vanish uncounted. Instead it applies the intact prefix,
// preserves the whole tail in quarantine.log, and opens the store
// degraded so the loss is surfaced.
func TestHeaderRotQuarantinesTailAndDegrades(t *testing.T) {
	ops := crashScript()
	walBytes, _ := runScript(t, t.TempDir())
	offs := walRecordOffsets(t, walBytes)

	const victim = 4 // framing lost here; ops 0..3 must still replay
	dir := t.TempDir()
	rotted := append([]byte(nil), walBytes...)
	rotted[offs[victim]] ^= 0x04 // length byte
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if deg, reason := rec.Degraded(); !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q after framing loss", deg, reason)
	}
	requireEqualStores(t, "prefix before header rot", rec, referenceAfter(t, ops, victim))

	ds := rec.Durability()
	if ds.Replayed != victim {
		t.Fatalf("replayed %d records, want %d", ds.Replayed, victim)
	}
	if ds.Quarantined != 1 {
		t.Fatalf("quarantined %d, want 1 (the unframeable tail)", ds.Quarantined)
	}
	q, err := os.ReadFile(filepath.Join(dir, "quarantine.log"))
	if err != nil {
		t.Fatalf("quarantine.log: %v", err)
	}
	if len(q) != len(walBytes)-offs[victim] {
		t.Fatalf("quarantine holds %d bytes, want the full %d-byte tail", len(q), len(walBytes)-offs[victim])
	}
	fi, err := os.Stat(filepath.Join(dir, "wal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(offs[victim]) {
		t.Fatalf("wal is %d bytes after recovery, want truncated to %d", fi.Size(), offs[victim])
	}
	if err := rec.Put(&Entity{ID: "z", Text: "t"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("put after framing loss: err = %v, want ErrReadOnly", err)
	}
}

// TestCompactFailureKeepsAckedWritesRecoverable: a compaction that fails
// mid-way (here: the next generation's WAL cannot be created) must leave
// the store entirely on the old generation — no snapshot published, not
// degraded — so writes acknowledged afterwards keep landing in the old
// WAL and recovery replays every one of them.
func TestCompactFailureKeepsAckedWritesRecoverable(t *testing.T) {
	ops := crashScript()
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:6] {
		applyOp(t, st, op)
	}
	// Block the gen-1 WAL with a directory: rotation fails before the
	// snapshot is renamed into place.
	blocker := filepath.Join(dir, "wal-00000001.log")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err == nil {
		t.Fatal("compact with a blocked wal rotation should fail")
	}
	if deg, reason := st.Degraded(); deg {
		t.Fatalf("cleanly undone compaction failure degraded the store: %s", reason)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot-00000001.xml")); !os.IsNotExist(err) {
		t.Fatalf("failed compaction published a snapshot (stat err = %v)", err)
	}
	if g := st.Durability().Generation; g != 0 {
		t.Fatalf("generation = %d after failed compaction, want 0", g)
	}
	// Later writes must still be acknowledged and recoverable.
	for _, op := range ops[6:] {
		applyOp(t, st, op)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireEqualStores(t, "after failed compaction", rec, referenceAfter(t, ops, len(ops)))
}

// TestCompactTempFileFaultLeavesOldGeneration: a write or fsync failure
// injected on the compaction snapshot's temp file (through the same
// WrapFile seam as the WAL) publishes nothing — no snapshot or WAL of the
// new generation, no stray temp file — and leaves the store healthy on
// the old generation, so later acked writes stay recoverable.
func TestCompactTempFileFaultLeavesOldGeneration(t *testing.T) {
	faultsByName := map[string]func(durable.File) durable.File{
		"write": func(f durable.File) durable.File { return &failingWAL{File: f} },
		"sync":  func(f durable.File) durable.File { return &failSyncWAL{inner: f} },
	}
	for name, inject := range faultsByName {
		t.Run(name, func(t *testing.T) {
			ops := crashScript()
			dir := t.TempDir()
			failing := false
			st, err := Open(dir, Options{Shards: 4, WrapFile: func(f durable.File) durable.File {
				if failing && strings.HasSuffix(f.(*os.File).Name(), ".tmp") {
					return inject(f)
				}
				return f
			}})
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[:4] {
				applyOp(t, st, op)
			}
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			applyOp(t, st, ops[4])
			applyOp(t, st, ops[5])

			failing = true
			if err := st.Compact(); err == nil {
				t.Fatal("compact through a failing snapshot temp file should fail")
			}
			failing = false
			if deg, reason := st.Degraded(); deg {
				t.Fatalf("cleanly undone compaction failure degraded the store: %s", reason)
			}
			if g := st.Durability().Generation; g != 1 {
				t.Fatalf("generation = %d after failed compaction, want 1", g)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				if n := ent.Name(); strings.HasSuffix(n, ".tmp") || strings.Contains(n, "00000002") {
					t.Errorf("failed compaction left %s behind", n)
				}
			}
			for _, op := range ops[6:] {
				applyOp(t, st, op)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Open(dir, Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if ds := rec.Durability(); !ds.SnapshotLoaded || ds.Generation != 1 || ds.Quarantined != 0 {
				t.Fatalf("recovery stats = %+v, want the generation-1 snapshot loaded cleanly", ds)
			}
			requireEqualStores(t, "after failed compaction", rec, referenceAfter(t, ops, len(ops)))
		})
	}
}

// TestCorruptSnapshotFallsBack: when the newest snapshot fails its
// checksum, recovery quarantines it and reconstructs the same state from
// the previous generation's WAL plus the current one.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	ops := crashScript()
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:6] {
		applyOp(t, st, op)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[6:] {
		applyOp(t, st, op)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(dir, "snapshot-00000001.xml")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireEqualStores(t, "snapshot fallback", rec, referenceAfter(t, ops, len(ops)))
	if _, err := os.Stat(snap + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
	ds := rec.Durability()
	if ds.SnapshotLoaded {
		t.Error("corrupt snapshot reported as loaded")
	}
	if ds.Quarantined == 0 {
		t.Error("corrupt snapshot not counted as quarantined")
	}
}

// TestAutoCompact: CompactEvery triggers compaction from the append path.
func TestAutoCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2, CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := st.Put(&Entity{ID: fmt.Sprintf("d%02d", i), Text: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	if g := st.Durability().Generation; g < 2 {
		t.Fatalf("generation = %d after 12 puts with CompactEvery=5, want >= 2", g)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 12 {
		t.Fatalf("recovered %d entities, want 12", rec.Len())
	}
}

// failingWAL fails every write after the first failAfter succeed.
type failingWAL struct {
	durable.File
	failAfter int
	writes    int
	failSync  bool
}

func (f *failingWAL) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.failAfter {
		return 0, errors.New("simulated disk failure")
	}
	return f.File.Write(p)
}

func (f *failingWAL) Sync() error {
	if f.failSync && f.writes >= f.failAfter {
		return errors.New("simulated sync failure")
	}
	return f.File.Sync()
}

// TestDegradedReadOnlyOnAppendFailure: a failed WAL append flips the
// store into degraded read-only mode — the failed op is not applied, no
// later write is accepted, reads keep serving the recovered state, and a
// clean reopen recovers exactly the acknowledged ops.
func TestDegradedReadOnlyOnAppendFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2, WrapFile: func(w durable.File) durable.File {
		return &failingWAL{File: w, failAfter: 2}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Entity{ID: "a", Text: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Entity{ID: "b", Text: "second"}); err != nil {
		t.Fatal(err)
	}
	err = st.Put(&Entity{ID: "c", Text: "third"})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("third put: err = %v, want ErrReadOnly", err)
	}
	if deg, reason := st.Degraded(); !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q after append failure", deg, reason)
	}
	// The failed mutation must not be visible.
	if _, ok := st.Get("c"); ok {
		t.Fatal("unacknowledged put is visible")
	}
	// Reads keep working; all further mutations are rejected.
	if _, ok := st.Get("a"); !ok {
		t.Fatal("degraded store lost reads")
	}
	if err := st.Delete("a"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete in degraded mode: %v", err)
	}
	if _, err := st.Annotate("a", []Annotation{{Miner: "m"}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("annotate in degraded mode: %v", err)
	}
	if err := st.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("compact in degraded mode: %v", err)
	}
	st.Close()

	rec, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 2 {
		t.Fatalf("recovered %d entities, want the 2 acknowledged", rec.Len())
	}
}

// TestDegradedReadOnlyOnSyncFailure: a failed sync equally degrades.
func TestDegradedReadOnlyOnSyncFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2, WrapFile: func(w durable.File) durable.File {
		return &failingWAL{File: w, failAfter: 1, failSync: true}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Entity{ID: "a", Text: "x"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("put with failing sync: err = %v, want ErrReadOnly", err)
	}
	if deg, reason := st.Degraded(); !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q after sync failure", deg, reason)
	}
	st.Close()
}

// TestDurableUpdateSurvivesReopen: Update on a durable store re-logs the
// whole entity, so the mutation is recoverable.
func TestDurableUpdateSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Entity{ID: "a", Text: "before"}); err != nil {
		t.Fatal(err)
	}
	if !st.Update("a", func(e *Entity) { e.Text = "after" }) {
		t.Fatal("update failed")
	}
	if st.Update("missing", func(*Entity) {}) {
		t.Fatal("update of missing ID should report false")
	}
	st.Close()

	rec, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	e, ok := rec.Get("a")
	if !ok || e.Text != "after" {
		t.Fatalf("recovered entity = %+v, %v", e, ok)
	}
}

// TestConcurrentUpdateAndAnnotate: Update's read-modify-write runs under
// the WAL mutex, so an Annotate acknowledged while an Update is in
// flight is never overwritten by the Update's stale full-entity re-log —
// neither in memory nor after replay.
func TestConcurrentUpdateAndAnnotate(t *testing.T) {
	const n = 100
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Entity{ID: "a", Text: "t"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := st.Annotate("a", []Annotation{{Miner: "m", Key: fmt.Sprintf("k%03d", i)}}); err != nil {
				t.Errorf("annotate %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if !st.Update("a", func(e *Entity) { e.Title = fmt.Sprintf("rev %d", i) }) {
				t.Errorf("update %d failed", i)
				return
			}
		}
	}()
	wg.Wait()
	e, ok := st.Get("a")
	if !ok || len(e.Annotations) != n {
		t.Fatalf("in-memory: %d annotations survived, want %d", len(e.Annotations), n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	e, ok = rec.Get("a")
	if !ok || len(e.Annotations) != n {
		t.Fatalf("after replay: %d annotations survived, want %d", len(e.Annotations), n)
	}
}

// TestOpenEmptyDir: opening a fresh directory yields an empty, writable
// store with a live gen-0 WAL.
func TestOpenEmptyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 0 || !st.Durable() {
		t.Fatalf("Len=%d Durable=%v", st.Len(), st.Durable())
	}
	if deg, _ := st.Degraded(); deg {
		t.Fatal("fresh store is degraded")
	}
	if err := st.Put(&Entity{ID: "a", Text: "t"}); err != nil {
		t.Fatal(err)
	}
	if ds := st.Durability(); ds.Appended != 1 || ds.Syncs != 1 || ds.Generation != 0 {
		t.Fatalf("stats = %+v", ds)
	}
}

// TestReplayLegacyReplicatedRecords opens a log written behind the old
// replication tier: a put carrying a version attribute and a versioned
// delete (opDeleteV). The put replays as a plain put and the delete as a
// plain delete, whatever its stamp.
func TestReplayLegacyReplicatedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"doc-01", "doc-02"} {
		if err := s.Put(&Entity{ID: id, Text: "body " + id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stamp := []byte{0, 0, 0x01, 0x8f, 0, 0, 0, 7}
	legacy := append(encodeWALRecord(opDeleteV, append(stamp, "doc-01"...)),
		encodeWALRecord(opPutXML, []byte(`<entity id="doc-03" version="7"><text>versioned</text></entity>`))...)
	f, err := os.OpenFile(walFiles.Path(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(legacy); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ds := s2.Durability(); ds.Replayed != 4 || ds.Quarantined != 0 || ds.Degraded {
		t.Fatalf("replay stats = %+v, want 4 records applied cleanly", ds)
	}
	if got := s2.IDs(); !reflect.DeepEqual(got, []string{"doc-02", "doc-03"}) {
		t.Fatalf("ids after replay = %v, want [doc-02 doc-03]", got)
	}
	if e, _ := s2.Get("doc-03"); e.Text != "versioned" {
		t.Fatalf("legacy put replayed as %+v", e)
	}
}

// legacyXMLRecord frames a put or annotate script op as the XML-bodied
// record older versions logged for it.
func legacyXMLRecord(t *testing.T, op scriptOp) []byte {
	t.Helper()
	var (
		v    any
		code byte
	)
	switch op.kind {
	case "put":
		v, code = op.e, opPutXML
	case "ann":
		v, code = xmlAnnotateRecord{ID: op.id, Annotations: op.anns}, opAnnotateXML
	default:
		t.Fatalf("no XML record for %q", op.kind)
	}
	body, err := xml.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return encodeWALRecord(code, body)
}

// TestReplayMixedXMLAndBinaryLog replays a log whose puts and
// annotates alternate between the legacy XML bodies and the binary ones,
// with deletes between them: after every record it must hold exactly
// the entities the log the store writes itself holds after the same op,
// and new records appended behind it must replay too.
func TestReplayMixedXMLAndBinaryLog(t *testing.T) {
	binLog, binEnds := runScript(t, t.TempDir())
	var mixedLog []byte
	var mixedEnds []int
	seen := map[string]int{}
	for _, op := range crashScript() {
		legacy := op.kind != "del" && seen[op.kind]%2 == 0
		seen[op.kind]++
		switch {
		case legacy:
			mixedLog = append(mixedLog, legacyXMLRecord(t, op)...)
		case op.kind == "put":
			mixedLog = append(mixedLog, encodePut(op.e)...)
		case op.kind == "ann":
			mixedLog = append(mixedLog, encodeAnnotate(op.id, op.anns)...)
		default:
			mixedLog = append(mixedLog, encodeWALRecord(opDelete, []byte(op.id))...)
		}
		mixedEnds = append(mixedEnds, len(mixedLog))
	}

	open := func(dir string, records int) *Store {
		s, err := Open(dir, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if ds := s.Durability(); ds.Replayed != records || ds.Quarantined != 0 || ds.Degraded {
			t.Fatalf("replay stats %+v, want %d records applied cleanly", ds, records)
		}
		return s
	}
	logDir := func(log []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(walFiles.Path(dir, 0), log, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	var binDir, mixedDir string
	for n := range crashScript() {
		binDir, mixedDir = logDir(binLog[:binEnds[n]]), logDir(mixedLog[:mixedEnds[n]])
		requireEqualStores(t, fmt.Sprintf("mixed-format log through op %d", n), open(mixedDir, n+1), open(binDir, n+1))
	}

	for _, dir := range []string{binDir, mixedDir} {
		s := open(dir, len(crashScript()))
		if _, err := s.Annotate("e3", []Annotation{{Miner: "sentiment", Key: "d100", Value: "+", Sentence: 4, Start: 1, End: 5}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	n := len(crashScript()) + 1
	requireEqualStores(t, "mixed-format log after an append", open(mixedDir, n), open(binDir, n))
}
