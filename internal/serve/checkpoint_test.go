package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webfountain/internal/durable"
)

// testFacts builds a small deterministic fact stream: two subjects,
// two months, mixed polarity, one aspected fact.
func testFacts() []Fact {
	return []Fact{
		{Subject: "NR70", Feature: "pictures", Date: "2003-01-05", Positive: true},
		{Subject: "NR70", Date: "2003-02-11", Positive: true},
		{Subject: "CLIE", Date: "2003-01-20", Positive: false},
		{Subject: "CLIE", Feature: "screen", Date: "2003-02-02", Positive: false},
	}
}

func testCheckpoint(batches int) *Checkpoint {
	a := NewAggregates()
	facts := testFacts()
	for i := 0; i < batches; i++ {
		a.Apply(facts)
	}
	return &Checkpoint{
		View: a.View(),
		Entries: []Entry{
			{Subject: "CLIE", Polarity: "-", Doc: "d2", Sentence: 0, Snippet: "the CLIE disappointed", Feature: ""},
			{Subject: "NR70", Polarity: "+", Doc: "d1", Sentence: 1, Snippet: "takes excellent pictures", Feature: "pictures"},
		},
		MinedDocs: []string{"d1", "d2"},
	}
}

func mustWrite(t *testing.T, dir string, ck *Checkpoint) string {
	t.Helper()
	path, err := WriteCheckpoint(dir, ck, nil)
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return path
}

// checkpointName pins the on-disk file name of a generation
// independently of the code that produces it.
func checkpointName(gen uint64) string { return fmt.Sprintf("checkpoint-%016x.ck", gen) }

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(3)
	path := mustWrite(t, dir, ck)
	if want := filepath.Join(dir, checkpointName(ck.View.Generation())); path != want {
		t.Fatalf("checkpoint path %q, want %q", path, want)
	}

	got, quarantined, err := LoadCheckpoint(dir)
	if err != nil || quarantined != 0 {
		t.Fatalf("LoadCheckpoint: quarantined=%d err=%v", quarantined, err)
	}
	if got == nil {
		t.Fatal("LoadCheckpoint returned nil for a freshly written checkpoint")
	}
	if got.View.Generation() != ck.View.Generation() {
		t.Errorf("generation %d, want %d", got.View.Generation(), ck.View.Generation())
	}
	if got.View.Fingerprint() != ck.View.Fingerprint() {
		t.Errorf("fingerprint mismatch after round trip")
	}
	if got.View.Facts() != ck.View.Facts() {
		t.Errorf("facts %d, want %d", got.View.Facts(), ck.View.Facts())
	}
	if !reflect.DeepEqual(got.Entries, ck.Entries) {
		t.Errorf("entries %+v, want %+v", got.Entries, ck.Entries)
	}
	if !reflect.DeepEqual(got.MinedDocs, ck.MinedDocs) {
		t.Errorf("mined docs %v, want %v", got.MinedDocs, ck.MinedDocs)
	}
	// The restored view must answer queries like the original.
	for _, s := range ck.View.Subjects() {
		if got.View.Counts(s) != ck.View.Counts(s) {
			t.Errorf("%s: counts %+v != %+v", s, got.View.Counts(s), ck.View.Counts(s))
		}
		if !reflect.DeepEqual(got.View.Series(s), ck.View.Series(s)) {
			t.Errorf("%s: series mismatch", s)
		}
		if !reflect.DeepEqual(got.View.Aspects(s), ck.View.Aspects(s)) {
			t.Errorf("%s: aspects mismatch", s)
		}
	}
}

// TestCheckpointOldDebtListIgnored: a v1 file written while the trailing
// list still carried annotation debt loads, and decodes to the same
// checkpoint as one written today — the list's position stays, its
// contents are dropped.
func TestCheckpointOldDebtListIgnored(t *testing.T) {
	ck := testCheckpoint(2)
	now := ck.encode()
	if now[len(now)-5] != 0 {
		t.Fatalf("encoded checkpoint does not end in an empty list before its CRC")
	}
	old := append([]byte(nil), now[:len(now)-5]...)
	old = append(old, 1, 2, 'd', '2') // one ID, "d2"
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
	got, err := decodeCheckpoint(old)
	if err != nil {
		t.Fatalf("old-layout checkpoint rejected: %v", err)
	}
	want, err := decodeCheckpoint(now)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("old-layout checkpoint decodes to %+v, want %+v", got, want)
	}
}

// TestCheckpointFingerprintIgnoresGeneration: the fingerprint compares
// what the view would answer, not how many batches built it — the chaos
// suite's equality check between a recovered tier (many per-doc repair
// publishes) and an offline re-mine (one seed publish).
func TestCheckpointFingerprintIgnoresGeneration(t *testing.T) {
	one := NewAggregates()
	one.Apply(testFacts())

	perFact := NewAggregates()
	for _, f := range testFacts() {
		perFact.Apply([]Fact{f})
	}

	a, b := one.View(), perFact.View()
	if a.Generation() == b.Generation() {
		t.Fatalf("test needs distinct generations, both %d", a.Generation())
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("same cells, different fingerprints: %s != %s", a.Fingerprint(), b.Fingerprint())
	}

	perFact.Apply([]Fact{{Subject: "NR70", Date: "2003-03-01", Positive: false}})
	if a.Fingerprint() == perFact.View().Fingerprint() {
		t.Error("different cells, same fingerprint")
	}
}

func TestLoadCheckpointEmpty(t *testing.T) {
	ck, quarantined, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing"))
	if ck != nil || quarantined != 0 || err != nil {
		t.Fatalf("missing dir: ck=%v quarantined=%d err=%v", ck, quarantined, err)
	}
	ck, quarantined, err = LoadCheckpoint(t.TempDir())
	if ck != nil || quarantined != 0 || err != nil {
		t.Fatalf("empty dir: ck=%v quarantined=%d err=%v", ck, quarantined, err)
	}
}

// TestCheckpointQuarantineFallsBack: a bit-flipped newest checkpoint is
// renamed *.corrupt and the loader restores the older generation.
func TestCheckpointQuarantineFallsBack(t *testing.T) {
	dir := t.TempDir()
	older := testCheckpoint(1)
	mustWrite(t, dir, older)
	newer := testCheckpoint(2)
	path := mustWrite(t, dir, newer)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, quarantined, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", quarantined)
	}
	if got == nil || got.View.Generation() != older.View.Generation() {
		t.Fatalf("fallback generation: got %+v, want gen %d", got, older.View.Generation())
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt file still present under its real name")
	}
}

// TestCheckpointTruncatedQuarantine: a truncated file (even below the
// header size) quarantines rather than erroring the boot.
func TestCheckpointTruncatedQuarantine(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, dir, testCheckpoint(1))
	path := mustWrite(t, dir, testCheckpoint(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, quarantined, err := LoadCheckpoint(dir)
	if err != nil || quarantined != 1 || got == nil {
		t.Fatalf("got=%v quarantined=%d err=%v, want older checkpoint, 1 quarantine", got, quarantined, err)
	}
}

// TestLoadCheckpointRemovesStrayTemp: a crash mid-write leaves a .tmp
// file that was never published; the loader deletes it and ignores it.
func TestLoadCheckpointRemovesStrayTemp(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(1)
	mustWrite(t, dir, ck)
	stray := filepath.Join(dir, "checkpoint-12345.tmp")
	if err := os.WriteFile(stray, []byte("torn half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, quarantined, err := LoadCheckpoint(dir)
	if err != nil || quarantined != 0 || got == nil {
		t.Fatalf("got=%v quarantined=%d err=%v", got, quarantined, err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray temp file survived load")
	}
}

// TestWriteCheckpointPrunes: only checkpointKeep generations survive a
// write; the newest is always among them.
func TestWriteCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	var lastGen uint64
	for i := 1; i <= checkpointKeep+2; i++ {
		ck := testCheckpoint(i)
		mustWrite(t, dir, ck)
		lastGen = ck.View.Generation()
	}
	gens := checkpointFiles.Gens(dir) // ascending
	if len(gens) != checkpointKeep {
		t.Fatalf("kept %d generations %v, want %d", len(gens), gens, checkpointKeep)
	}
	if newest := gens[len(gens)-1]; newest != lastGen {
		t.Errorf("newest kept generation %d, want %d", newest, lastGen)
	}
}

// failingFile passes data through but fails every Write or every Sync —
// the injected-fault shapes of a disk that dies mid-checkpoint, or that
// accepts the bytes and cannot make them durable.
type failingFile struct {
	durable.File
	failWrite, failSync bool
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.failWrite {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

func (f failingFile) Sync() error {
	if f.failSync {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

// TestWriteCheckpointFailureLeavesOldIntact: a failed write or a failed
// fsync of the temp file publishes nothing — no torn or unsynced file
// under the real name, no stray temp, and the previous checkpoint still
// loads.
func TestWriteCheckpointFailureLeavesOldIntact(t *testing.T) {
	for _, fail := range []failingFile{{failWrite: true}, {failSync: true}} {
		t.Run(fmt.Sprintf("write=%v,sync=%v", fail.failWrite, fail.failSync), func(t *testing.T) {
			testWriteCheckpointFailure(t, fail)
		})
	}
}

func testWriteCheckpointFailure(t *testing.T, fail failingFile) {
	dir := t.TempDir()
	old := testCheckpoint(1)
	mustWrite(t, dir, old)

	_, err := WriteCheckpoint(dir, testCheckpoint(2), func(f durable.File) durable.File {
		fail.File = f
		return fail
	})
	if err == nil {
		t.Fatal("WriteCheckpoint succeeded through a failing file")
	}

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Errorf("stray temp file left behind: %s", de.Name())
		}
	}
	got, quarantined, err := LoadCheckpoint(dir)
	if err != nil || quarantined != 0 || got == nil {
		t.Fatalf("got=%v quarantined=%d err=%v", got, quarantined, err)
	}
	if got.View.Generation() != old.View.Generation() {
		t.Errorf("loaded generation %d, want the old %d", got.View.Generation(), old.View.Generation())
	}
}
