package store

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// goldenRecords are the records this version writes behind
// testdata/wal.golden: a put of each golden entity, an annotate
// carrying a feature and a negative sentence, and a delete.
func goldenRecords() []goldenRecord {
	var out []goldenRecord
	for _, e := range goldenEntities() {
		out = append(out, goldenRecord{"op 8 put " + e.ID, encodePut(e)})
	}
	rec := encodeAnnotate("doc-03", []Annotation{
		{Miner: "sentiment", Type: "polarity", Key: "d100", Value: "-", Feature: "battery life", Sentence: 2, Start: 130, End: 171},
		{Miner: "geo", Type: "region", Key: "asia", Sentence: -1},
	})
	out = append(out, goldenRecord{"op 7 annotate doc-03", rec})
	return append(out, goldenRecord{"op 2 delete doc-02", encodeWALRecord(opDelete, []byte("doc-02"))})
}

// TestWALRecordGolden pins the WAL's record bytes, frame included, to
// testdata/wal.golden, a hex dump of two kinds of section. The records
// of the plain bodies older versions wrote (ops 5 and 6) are kept as
// they were written, and must replay to the store goldenRecords
// replays to. Then come goldenRecords, byte for byte (regenerate them
// with -update-golden, which keeps the older sections). A change to
// them is a log format change: logs already on disk must still replay.
func TestWALRecordGolden(t *testing.T) {
	golden := filepath.Join("testdata", "wal.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	legacy, err := legacyGoldenRecords()
	if err != nil {
		t.Fatal(err)
	}
	current := goldenRecords()
	var buf bytes.Buffer
	for _, r := range append(legacy, current...) {
		fmt.Fprintf(&buf, "== %s (%d bytes)\n%s", r.name, len(r.rec), hex.Dump(r.rec))
	}
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		want = buf.Bytes()
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WAL records differ from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// The delete is left out: it is the same record in both formats.
	old, now := replayGolden(t, legacy), replayGolden(t, current[:len(current)-1])
	if len(legacy) != 4 || old.Len() != 3 {
		t.Fatalf("%d legacy sections replay to %d entities, want 4 and 3", len(legacy), old.Len())
	}
	for _, id := range now.IDs() {
		a, _ := old.Get(id)
		b, _ := now.Get(id)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s replays from the legacy records as\n%+v\nand from today's as\n%+v", id, a, b)
		}
	}
	if e, _ := old.Get("doc-03"); len(e.Annotations) != 2 || e.Annotations[0].Feature != "battery life" {
		t.Errorf("the legacy annotate record replays as %+v", e.Annotations)
	}
}

// parseGoldenDump reads the sections of a wal.golden hex dump back into
// records.
func parseGoldenDump(data []byte) ([]goldenRecord, error) {
	var out []goldenRecord
	var sizes []int
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if head, ok := strings.CutPrefix(line, "== "); ok {
			i := strings.LastIndex(head, " (")
			var size int
			if i < 0 {
				return nil, fmt.Errorf("golden header %q has no byte count", line)
			}
			if _, err := fmt.Sscanf(head[i:], " (%d bytes)", &size); err != nil {
				return nil, fmt.Errorf("golden header %q: %v", line, err)
			}
			out, sizes = append(out, goldenRecord{name: head[:i]}), append(sizes, size)
			continue
		}
		bar := strings.IndexByte(line, '|')
		if len(out) == 0 || bar < 10 {
			return nil, fmt.Errorf("malformed golden line %q", line)
		}
		b, err := hex.DecodeString(strings.Join(strings.Fields(line[10:bar]), ""))
		if err != nil {
			return nil, fmt.Errorf("golden line %q: %v", line, err)
		}
		out[len(out)-1].rec = append(out[len(out)-1].rec, b...)
	}
	for i, r := range out {
		if len(r.rec) != sizes[i] || len(r.rec) <= walHeaderSize {
			return nil, fmt.Errorf("golden section %q holds %d bytes, its header says %d", r.name, len(r.rec), sizes[i])
		}
	}
	return out, nil
}

// legacyGoldenRecords are the sections of testdata/wal.golden that
// older versions wrote: records of the plain bodies, ops 5 and 6.
func legacyGoldenRecords() ([]goldenRecord, error) {
	data, err := os.ReadFile(filepath.Join("testdata", "wal.golden"))
	if err != nil {
		return nil, err
	}
	recs, err := parseGoldenDump(data)
	if err != nil {
		return nil, err
	}
	var legacy []goldenRecord
	for _, r := range recs {
		if op := r.rec[walHeaderSize]; op == opPutPlain || op == opAnnotatePlain {
			legacy = append(legacy, r)
		}
	}
	return legacy, nil
}

// replayGolden replays records into a fresh store through the path
// recovery takes.
func replayGolden(t *testing.T, recs []goldenRecord) *Store {
	t.Helper()
	s := New(1)
	for _, r := range recs {
		op, body, n, err := decodeWALRecord(r.rec)
		if err != nil || n != len(r.rec) {
			t.Fatalf("%s: %d of %d bytes framed, err %v", r.name, n, len(r.rec), err)
		}
		if err := applyRecord(s, op, body); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	return s
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
