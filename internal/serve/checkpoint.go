package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"webfountain/internal/durable"
)

// Production no longer calls anything in this file except the view
// codec behind View.Fingerprint: the serving tier keeps no checkpoint —
// the store's annotate records carry every fact and a restart folds
// them back. Checkpoint, WriteCheckpoint and LoadCheckpoint stay because
// the frozen benchmark (benchmark/shadow.go's checkpoint stage,
// benchmark/trace.go) still links them; delete them with that stage.
//
// A checkpoint held the serving tier's materialized state: the full
// subject × feature × polarity × month aggregate table, the query-time
// sentiment entries behind /api/sentiment, and the set of document IDs
// whose facts those tables contain.
//
// The on-disk format is a versioned binary codec guarded the same way
// the store's snapshots are: a magic+version header, a varint-encoded
// body, and a CRC32 (IEEE) trailer over everything before it. Files are
// a durable.Family named by the aggregate generation they capture:
// published atomically, and loaded newest-first with any file that
// fails its CRC or decodes inconsistently quarantined.

const (
	// checkpointMagic opens every checkpoint file; the trailing two
	// bytes are the big-endian codec version.
	checkpointMagic   = "WFCKPT"
	checkpointVersion = uint16(1)
	// checkpointKeep is how many valid generations WriteCheckpoint
	// retains: the one just written plus one fallback for bit-rot.
	checkpointKeep = 2
)

// Checkpoint is the serving tier's durable state.
type Checkpoint struct {
	// View is the aggregate snapshot (including its generation).
	View *View
	// Entries are the query-time sentiment-index entries, in the
	// deterministic total order the index dumps them in.
	Entries []Entry
	// MinedDocs are the IDs of every document whose facts are folded
	// into View and Entries — the recovery watermark. Sorted.
	MinedDocs []string
}

// encode serializes the checkpoint: header, body, CRC trailer.
func (ck *Checkpoint) encode() []byte {
	var b bytes.Buffer
	b.WriteString(checkpointMagic)
	var ver [2]byte
	binary.BigEndian.PutUint16(ver[:], checkpointVersion)
	b.Write(ver[:])
	encodeViewBody(&b, ck.View, true)
	putUvarint(&b, uint64(len(ck.Entries)))
	for _, e := range ck.Entries {
		putString(&b, e.Subject)
		putString(&b, e.Polarity)
		putString(&b, e.Doc)
		putUvarint(&b, uint64(e.Sentence))
		putString(&b, e.Snippet)
		putString(&b, e.Feature)
	}
	putStrings(&b, ck.MinedDocs)
	// The v1 layout ends with a second ID list (an annotation-debt list
	// no writer fills any more); it stays, empty, so the bytes of a
	// checkpoint and the version do not change.
	putStrings(&b, nil)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b.Bytes()))
	b.Write(crc[:])
	return b.Bytes()
}

// decodeCheckpoint parses and CRC-verifies one checkpoint file's bytes.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(checkpointMagic)+2+4 {
		return nil, fmt.Errorf("serve: checkpoint truncated (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("serve: checkpoint CRC mismatch: %08x != %08x", got, want)
	}
	if string(body[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("serve: bad checkpoint magic")
	}
	if v := binary.BigEndian.Uint16(body[len(checkpointMagic):]); v != checkpointVersion {
		return nil, fmt.Errorf("serve: unsupported checkpoint version %d", v)
	}
	d := &decoder{buf: body[len(checkpointMagic)+2:]}
	ck := &Checkpoint{}
	ck.View = decodeViewBody(d)
	n := d.uvarint()
	if max := uint64(len(d.buf)) / 6; n > max { // each entry is ≥ 6 bytes
		d.fail("entry count %d exceeds what %d remaining bytes can hold", n, len(d.buf))
	}
	if d.err == nil {
		ck.Entries = make([]Entry, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			ck.Entries = append(ck.Entries, Entry{
				Subject:  d.string(),
				Polarity: d.string(),
				Doc:      d.string(),
				Sentence: int(d.uvarint()),
				Snippet:  d.string(),
				Feature:  d.string(),
			})
		}
	}
	ck.MinedDocs = d.strings()
	d.strings() // the retired debt list: ignored in files that carry one
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("serve: checkpoint has %d trailing bytes", len(d.buf))
	}
	return ck, nil
}

// encodeViewBody writes the aggregate table in a deterministic order
// (sorted subjects, months and aspects). withGen=false is the
// fingerprint form: two views holding the same cells hash identically
// no matter how many batches built them.
func encodeViewBody(b *bytes.Buffer, v *View, withGen bool) {
	if withGen {
		putUvarint(b, v.gen)
	}
	putUvarint(b, uint64(v.facts))
	putCounts(b, v.totals)
	putUvarint(b, uint64(len(v.names)))
	for _, name := range v.names {
		s := v.subjects[name]
		putString(b, name)
		putCounts(b, s.total)
		for _, cells := range [...][]cell{s.months(), s.aspects()} { // each sorted by key
			putUvarint(b, uint64(len(cells)))
			for _, c := range cells {
				putString(b, c.key)
				putCounts(b, c.Counts)
			}
		}
	}
}

// decodeViewBody is encodeViewBody's inverse (always with generation).
func decodeViewBody(d *decoder) *View {
	v := &View{
		gen:      d.uvarint(),
		facts:    int(d.uvarint()),
		totals:   d.counts(),
		subjects: map[string]*subjectAgg{},
	}
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		name := d.string()
		s := &subjectAgg{key: name, total: d.counts()}
		for j, m := uint64(0), d.uvarint(); j < m && d.err == nil; j++ {
			s.cells = append(s.cells, cell{key: d.string(), Counts: d.counts()})
		}
		s.nMonths = len(s.cells)
		for j, m := uint64(0), d.uvarint(); j < m && d.err == nil; j++ {
			s.cells = append(s.cells, cell{key: d.string(), Counts: d.counts()})
		}
		v.subjects[name] = s
		v.names = append(v.names, name)
	}
	return v
}

// Fingerprint returns a deterministic digest of the aggregate table —
// every subject's totals, months and aspects plus the corpus totals,
// excluding the generation counter. It covers the cells behind
// /api/subjects, /api/trend and /api/aspects, but not the entries
// /api/sentiment serves: two views with equal fingerprints may
// hold different entries, so a check that the views answer alike
// compares every subject's Entries as well.
func (v *View) Fingerprint() string {
	var b bytes.Buffer
	encodeViewBody(&b, v, false)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkpointFiles names the checkpoint generations in a directory:
// checkpoint-<16 hex digits>.ck, the aggregate generation captured.
var checkpointFiles = durable.Family{Prefix: "checkpoint", Suffix: ".ck", Base: 16, Width: 16}

// WriteCheckpoint atomically publishes a checkpoint into dir
// (durable.Family.Publish: a crash at any instant leaves either the old
// set of checkpoints or the old set plus one complete new file) and
// prunes old generations, keeping checkpointKeep. wrap, when non-nil,
// wraps the temp file handle — the deterministic disk-fault injector's
// hook in crash tests.
func WriteCheckpoint(dir string, ck *Checkpoint, wrap durable.Wrap) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	data := ck.encode()
	gen := ck.View.Generation()
	err := checkpointFiles.Publish(dir, gen, wrap, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("serve: write checkpoint: %w", err)
	}
	checkpointFiles.Prune(dir, gen, checkpointKeep)
	return checkpointFiles.Path(dir, gen), nil
}

// LoadCheckpoint returns the newest valid checkpoint in dir (nil when
// the directory holds none) and reports how many newer files failed
// verification and were quarantined as *.corrupt — bit rot, or a torn
// write that somehow reached the real name.
func LoadCheckpoint(dir string) (*Checkpoint, int, error) {
	var ck *Checkpoint
	_, _, quarantined, err := checkpointFiles.Load(dir, func(data []byte) (derr error) {
		ck, derr = decodeCheckpoint(data)
		return derr
	})
	if err != nil {
		return nil, quarantined, fmt.Errorf("serve: load checkpoint: %w", err)
	}
	return ck, quarantined, nil
}

// --- varint codec helpers ---

func putUvarint(b *bytes.Buffer, v uint64) {
	var scratch [binary.MaxVarintLen64]byte
	b.Write(scratch[:binary.PutUvarint(scratch[:], v)])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func putStrings(b *bytes.Buffer, ss []string) {
	putUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		putString(b, s)
	}
}

func putCounts(b *bytes.Buffer, c Counts) {
	putUvarint(b, uint64(c.Positive))
	putUvarint(b, uint64(c.Negative))
}

// decoder is a bounds-checked reader over the checkpoint body; the
// first malformed field latches err and every later read returns zero
// values, so decode call sites stay linear.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: checkpoint decode: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.buf))
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) strings() []string {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("string count %d exceeds remaining bytes", n)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.string())
	}
	return out
}

func (d *decoder) counts() Counts {
	return Counts{Positive: int(d.uvarint()), Negative: int(d.uvarint())}
}
