package faults

import (
	"bytes"
	"errors"
	"testing"
)

// memFile is an in-memory durable.File: Writes append, Sync counts.
type memFile struct {
	buf    bytes.Buffer
	syncs  int
	closed bool
}

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memFile) Sync() error                 { m.syncs++; return nil }
func (m *memFile) Close() error                { m.closed = true; return nil }

func TestFileTornWrite(t *testing.T) {
	mem := &memFile{}
	f := New(Config{TornWriteRate: 1}).File(mem)
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	var ferr *Error
	if !errors.As(err, &ferr) || ferr.Op != "disk-write" {
		t.Fatalf("torn write err = %v, want injected disk-write", err)
	}
	if ferr.Temporary() {
		t.Error("torn write reported as transient")
	}
	if n >= len(payload) || n < 0 {
		t.Fatalf("torn write persisted n = %d, want a strict prefix of %d", n, len(payload))
	}
	// Exactly the reported prefix reaches the underlying file.
	if got := mem.buf.Bytes(); !bytes.Equal(got, payload[:n]) {
		t.Errorf("underlying file has %q, want the %d-byte prefix %q", got, n, payload[:n])
	}
}

func TestFileTornWriteBytesCap(t *testing.T) {
	in := New(Config{TornWriteRate: 1, TornWriteBytes: 3})
	for i := 0; i < 50; i++ {
		mem := &memFile{}
		n, err := in.File(mem).Write([]byte("a long buffer that must be cut short"))
		if err == nil {
			t.Fatal("torn write did not fail")
		}
		if n > 3 {
			t.Fatalf("torn write persisted %d bytes, cap is 3", n)
		}
		if mem.buf.Len() != n {
			t.Fatalf("underlying wrote %d bytes, reported %d", mem.buf.Len(), n)
		}
	}
}

func TestFileBitFlipOnWrite(t *testing.T) {
	mem := &memFile{}
	f := New(Config{BitFlipRate: 1}).File(mem)
	payload := []byte("pristine payload bytes")
	n, err := f.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("bit-flip write = %d, %v (silent corruption must still succeed)", n, err)
	}
	diff := 0
	for i, b := range mem.buf.Bytes() {
		if x := b ^ payload[i]; x != 0 {
			diff++
			if x&(x-1) != 0 {
				t.Errorf("byte %d differs by more than one bit: %08b", i, x)
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes corrupted, want exactly 1", diff)
	}
	// The caller's buffer must not be mutated.
	if !bytes.Equal(payload, []byte("pristine payload bytes")) {
		t.Error("caller's buffer mutated")
	}
}

func TestFileSyncFailure(t *testing.T) {
	mem := &memFile{}
	f := New(Config{SyncFailRate: 1}).File(mem)
	err := f.Sync()
	var ferr *Error
	if !errors.As(err, &ferr) || ferr.Op != "disk-sync" {
		t.Fatalf("sync err = %v, want injected disk-sync", err)
	}
	if mem.syncs != 0 {
		t.Error("failed sync reached the underlying file")
	}
	if err := f.Close(); err != nil || !mem.closed {
		t.Errorf("close passthrough: err=%v closed=%v", err, mem.closed)
	}
}

func TestFilePassthroughWithoutRates(t *testing.T) {
	mem := &memFile{}
	f := New(Config{}).File(mem)
	if n, err := f.Write([]byte("clean")); n != 5 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if got := mem.buf.String(); got != "clean" {
		t.Fatalf("underlying file holds %q", got)
	}
	if err := f.Sync(); err != nil || mem.syncs != 1 {
		t.Fatalf("sync = %v, syncs = %d", err, mem.syncs)
	}
}

// TestFileDeterministicReplay: two injectors with the same seed place
// identical faults over an identical sequential workload.
func TestFileDeterministicReplay(t *testing.T) {
	run := func() ([]byte, Stats, []string) {
		in := New(Config{Seed: 42, TornWriteRate: 0.2, BitFlipRate: 0.2, SyncFailRate: 0.2})
		mem := &memFile{}
		f := in.File(mem)
		var errs []string
		for i := 0; i < 40; i++ {
			if _, err := f.Write([]byte("record payload with enough bytes")); err != nil {
				errs = append(errs, err.Error())
			}
			if err := f.Sync(); err != nil {
				errs = append(errs, err.Error())
			}
		}
		return mem.buf.Bytes(), in.Stats(), errs
	}
	bytesA, statsA, errsA := run()
	bytesB, statsB, errsB := run()
	if !bytes.Equal(bytesA, bytesB) {
		t.Error("same seed produced different on-disk bytes")
	}
	if statsA != statsB {
		t.Errorf("same seed produced different stats: %v vs %v", statsA, statsB)
	}
	if len(errsA) != len(errsB) {
		t.Errorf("same seed produced different error sequences: %d vs %d", len(errsA), len(errsB))
	}
	if statsA.TornWrites == 0 || statsA.BitFlips == 0 || statsA.SyncFailures == 0 {
		t.Errorf("expected all fault kinds at these rates over 40 ops: %v", statsA)
	}
}

func TestDiskStatsCounting(t *testing.T) {
	in := New(Config{TornWriteRate: 1})
	f := in.File(&memFile{})
	f.Write([]byte("some data"))
	f.Write([]byte("some more"))
	st := in.Stats()
	if st.TornWrites != 2 {
		t.Errorf("TornWrites = %d, want 2", st.TornWrites)
	}
	if st.Total() != 2 {
		t.Errorf("Total() = %d, want 2", st.Total())
	}
	if s := st.String(); !bytes.Contains([]byte(s), []byte("2 torn writes")) {
		t.Errorf("String() missing disk section: %q", s)
	}
}
