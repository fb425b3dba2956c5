package store

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenEntities is the fixed corpus behind the golden files: entities
// exercising every field that must survive a snapshot or a WAL record
// byte-identically — annotations, links, dates, URLs and XML-hostile
// text.
func goldenEntities() []*Entity {
	e1 := &Entity{
		ID: "doc-01", URL: "http://reviews.example/nr70", Source: "review",
		Title: "Review of the NR70", Date: "2004-06-01",
		Text:  "The NR70 takes excellent pictures & costs < $500.",
		Links: []string{"doc-02", "doc-03"},
	}
	e1.Annotate(Annotation{Miner: "spotter", Type: "spot", Key: "nr70", Sentence: 0, Start: 1, End: 2})
	e1.Annotate(Annotation{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "+", Sentence: 0, Start: 0, End: 4})
	e2 := &Entity{
		ID: "doc-02", URL: "http://bboard.example/t/9", Source: "bboard",
		Date: "2004-06-12", Text: "battery life is terrible",
	}
	e2.Annotate(Annotation{Miner: "sentiment", Type: "polarity", Key: "battery life", Value: "-", Sentence: 0, Start: 0, End: 2})
	e3 := &Entity{ID: "doc-03", Source: "news", Title: "Untitled", Text: "plain body, no annotations"}
	return []*Entity{e1, e2, e3}
}

// goldenStore holds the golden entities, for testdata/snapshot.golden.
func goldenStore(shards int) *Store {
	s := New(shards)
	for _, e := range goldenEntities() {
		if err := s.Put(e); err != nil {
			panic(err)
		}
	}
	return s
}

// TestSnapshotGolden pins the snapshot byte format: the same corpus must
// serialize to exactly testdata/snapshot.golden, so format drift is a
// deliberate, reviewed change (regenerate with -update-golden).
func TestSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStore(4).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with go test -run TestSnapshotGolden -update-golden ./internal/store)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// goldenRecord is one WAL record of testdata/wal.golden.
type goldenRecord struct {
	name string
	rec  []byte
}

// goldenRecords are the WAL records behind testdata/wal.golden: a put of
// each golden entity, an annotate carrying a feature and a negative
// sentence, and a delete.
func goldenRecords() []goldenRecord {
	var out []goldenRecord
	for _, e := range goldenEntities() {
		out = append(out, goldenRecord{"put " + e.ID, encodePut(e)})
	}
	rec := encodeAnnotate("doc-03", []Annotation{
		{Miner: "sentiment", Type: "polarity", Key: "d100", Value: "-", Feature: "battery life", Sentence: 2, Start: 130, End: 171},
		{Miner: "geo", Type: "region", Key: "asia", Sentence: -1},
	})
	out = append(out, goldenRecord{"annotate doc-03", rec})
	return append(out, goldenRecord{"delete doc-02", encodeWALRecord(opDelete, []byte("doc-02"))})
}

// TestWALRecordGolden pins the WAL's put, annotate and delete record
// bytes, frame included, to testdata/wal.golden (a hex dump; regenerate
// with -update-golden). A change here is a log format change: logs
// already on disk must still replay.
func TestWALRecordGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range goldenRecords() {
		fmt.Fprintf(&buf, "== %s (%d bytes)\n%s", r.name, len(r.rec), hex.Dump(r.rec))
	}
	golden := filepath.Join("testdata", "wal.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with go test -run TestWALRecordGolden -update-golden ./internal/store)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WAL records differ from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestSnapshotIdenticalStoresIdenticalBytes: two independently built but
// identical stores — even with different shard counts — emit the same
// snapshot bytes.
func TestSnapshotIdenticalStoresIdenticalBytes(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenStore(4).Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenStore(9).Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical stores emitted different snapshot bytes")
	}
}

// TestSnapshotRestoreByteIdentical: snapshot → restore → snapshot is a
// byte-identical round trip, proving annotations, links and dates all
// survive with full fidelity.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	var first bytes.Buffer
	if err := goldenStore(4).Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	restored := New(7)
	n, err := restored.Restore(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restored %d entities, want 3", n)
	}
	var second bytes.Buffer
	if err := restored.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("snapshot→restore→snapshot not byte-identical:\n--- first ---\n%s\n--- second ---\n%s",
			first.Bytes(), second.Bytes())
	}
	// Spot-check the fields the round trip must preserve.
	e, ok := restored.Get("doc-01")
	if !ok || e.Date != "2004-06-01" || len(e.Links) != 2 || len(e.Annotations) != 2 ||
		e.Annotations[1].Value != "+" {
		t.Errorf("restored entity lost data: %+v", e)
	}
}

// TestVerifySnapshotTrailer covers the checksum trailer: verification
// passes on intact bytes, pinpoints any single-byte corruption, and
// rejects snapshots without a trailer.
func TestVerifySnapshotTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStore(4).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := VerifySnapshot(data); err != nil {
		t.Fatalf("intact snapshot failed verification: %v", err)
	}
	for _, pos := range []int{0, len(data) / 3, len(data) / 2} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x20
		if _, err := VerifySnapshot(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
	if _, err := VerifySnapshot([]byte("<snapshot count=\"0\">\n</snapshot>\n")); err == nil {
		t.Error("trailer-less snapshot accepted")
	}

	// RestoreVerified refuses corrupted input outright...
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	s := New(2)
	if _, err := s.RestoreVerified(bytes.NewReader(bad)); err == nil {
		t.Error("RestoreVerified accepted corrupt snapshot")
	}
	if s.Len() != 0 {
		t.Error("failed RestoreVerified left partial state")
	}
	// ...and accepts intact input.
	if n, err := s.RestoreVerified(bytes.NewReader(data)); err != nil || n != 3 {
		t.Errorf("RestoreVerified = %d, %v", n, err)
	}
}

// TestRestoreIgnoresTrailer: the lenient Restore path stays compatible
// with both trailered and legacy trailer-less snapshots.
func TestRestoreIgnoresTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStore(4).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := buf.String()
	if i := strings.LastIndex(legacy, snapshotTrailerPrefix); i >= 0 {
		legacy = legacy[:i]
	}
	for _, in := range []string{buf.String(), legacy} {
		s := New(2)
		if n, err := s.Restore(strings.NewReader(in)); err != nil || n != 3 {
			t.Errorf("Restore = %d, %v", n, err)
		}
	}
}
