package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestWALRecordRoundTrip(t *testing.T) {
	cases := []struct {
		op   byte
		body string
	}{
		{opPutXML, "<entity id=\"a\"><text>hello</text></entity>"},
		{opDelete, "doc-000042"},
		{opAnnotateXML, "<annotate id=\"a\"></annotate>"},
		{opPut, ""},
		{opDelete, "\x00\xff binary \xfe"},
	}
	for _, c := range cases {
		rec := encodeWALRecord(c.op, []byte(c.body))
		op, body, n, err := decodeWALRecord(rec)
		if err != nil {
			t.Fatalf("decode(%q): %v", c.body, err)
		}
		if op != c.op || string(body) != c.body || n != len(rec) {
			t.Errorf("round trip: op=%d body=%q n=%d, want op=%d body=%q n=%d",
				op, body, n, c.op, c.body, len(rec))
		}
	}
}

func TestWALRecordTornTail(t *testing.T) {
	rec := encodeWALRecord(opPut, []byte("some payload body"))
	// Every strict prefix of a record is a torn tail.
	for l := 0; l < len(rec); l++ {
		_, _, n, err := decodeWALRecord(rec[:l])
		if !errors.Is(err, errTornRecord) {
			t.Fatalf("prefix %d: err = %v, want torn", l, err)
		}
		if n != l {
			t.Fatalf("prefix %d: n = %d, want %d (whole remainder)", l, n, l)
		}
	}
}

func TestWALRecordCorrupt(t *testing.T) {
	rec := encodeWALRecord(opAnnotate, []byte("payload to rot"))
	// Flip one bit in every payload and payload-checksum byte: each must
	// surface as a corrupt (not torn) record spanning the full frame.
	for i := 8; i < len(rec); i++ {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x10
		_, _, n, err := decodeWALRecord(bad)
		if !errors.Is(err, errCorruptRecord) {
			t.Fatalf("flip at %d: err = %v, want corrupt", i, err)
		}
		if n != len(rec) {
			t.Fatalf("flip at %d: n = %d, want %d", i, n, len(rec))
		}
	}
}

func TestWALRecordBadHeader(t *testing.T) {
	rec := encodeWALRecord(opPut, []byte("framed payload"))
	// Flip one bit in every length and length-checksum byte: the frame
	// cannot be trusted, so each must surface as a bad header spanning
	// all remaining bytes — never as a torn tail, which recovery would
	// silently truncate.
	for i := 0; i < 8; i++ {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x10
		_, _, n, err := decodeWALRecord(bad)
		if !errors.Is(err, errBadHeader) {
			t.Fatalf("flip at %d: err = %v, want bad header", i, err)
		}
		if n != len(bad) {
			t.Fatalf("flip at %d: n = %d, want %d (whole remainder)", i, n, len(bad))
		}
	}
}

func TestWALRecordImplausibleLength(t *testing.T) {
	// A checksum-valid header carrying a length the writer never emits is
	// framing corruption, not a torn tail.
	reframe := func(rec []byte, ln uint32) []byte {
		bad := append([]byte(nil), rec...)
		binary.LittleEndian.PutUint32(bad, ln)
		binary.LittleEndian.PutUint32(bad[4:], crc32.ChecksumIEEE(bad[:4]))
		return bad
	}
	rec := encodeWALRecord(opPut, []byte("x"))
	if _, _, _, err := decodeWALRecord(reframe(rec, maxWALRecord+1)); !errors.Is(err, errBadHeader) {
		t.Errorf("oversized length: err = %v, want bad header", err)
	}
	if _, _, _, err := decodeWALRecord(reframe(rec, 0)); !errors.Is(err, errBadHeader) {
		t.Errorf("zero length: err = %v, want bad header", err)
	}
}

func TestWALRecordSequence(t *testing.T) {
	var log []byte
	recs := []struct {
		op   byte
		body string
	}{
		{opPutXML, "<entity id=\"a\"></entity>"},
		{opAnnotateXML, "<annotate id=\"a\"></annotate>"},
		{opDelete, "a"},
	}
	for _, r := range recs {
		log = append(log, encodeWALRecord(r.op, []byte(r.body))...)
	}
	off, i := 0, 0
	for off < len(log) {
		op, body, n, err := decodeWALRecord(log[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if op != recs[i].op || string(body) != recs[i].body {
			t.Fatalf("record %d: op=%d body=%q", i, op, body)
		}
		off += n
		i++
	}
	if i != len(recs) {
		t.Fatalf("decoded %d records, want %d", i, len(recs))
	}
}

// FuzzWALRecord asserts the codec never panics on arbitrary bytes, and
// that anything it accepts re-encodes to the exact bytes it consumed.
func FuzzWALRecord(f *testing.F) {
	f.Add(encodeWALRecord(opPutXML, []byte("<entity id=\"a\"><text>t</text></entity>")))
	f.Add(encodeWALRecord(opDelete, []byte("doc-000001")))
	f.Add(encodeWALRecord(opAnnotateXML, []byte("<annotate id=\"x\"></annotate>")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	for _, rec := range goldenRecords() {
		f.Add(rec.rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		op, body, n, err := decodeWALRecord(data)
		if n < 0 || n > len(data) {
			t.Fatalf("n = %d out of range [0,%d]", n, len(data))
		}
		if err != nil {
			if !errors.Is(err, errTornRecord) && !errors.Is(err, errCorruptRecord) && !errors.Is(err, errBadHeader) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if !bytes.Equal(encodeWALRecord(op, body), data[:n]) {
			t.Fatalf("accepted record does not re-encode to its input")
		}
	})
}

// TestBinaryBodyRoundTrip: a put or annotate decoded from its record is
// the value a live store holds for it — empty slices come back nil,
// negative, inverted and extreme spans survive, and nothing is escaped.
func TestBinaryBodyRoundTrip(t *testing.T) {
	anns := []Annotation{
		{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "+", Feature: "pictures", Sentence: 3, Start: 4, End: 40},
		{Type: "region", Key: "asia", Sentence: -1},
		{Miner: "m", Sentence: math.MinInt, Start: math.MaxInt, End: math.MaxInt},
		{Sentence: math.MaxInt, Start: math.MinInt, End: math.MaxInt},
		{Key: "spoiled", Start: -4, End: 34},
		{Key: "inverted", Start: 34, End: 0},
	}
	ents := []*Entity{
		{ID: "a"},
		{ID: "empty-slices", Text: "t", Links: []string{}, Annotations: []Annotation{}},
		{ID: "doc-000001", URL: "http://x/y", Source: "review", Title: "T & <t>", Date: "2004-03-02",
			Text: "It's \"great\"\n\tand <bold> & more\x01\xff\x00", Links: []string{"b", "", "c"}, Annotations: anns},
		{ID: "long", Text: strings.Repeat("'", 3000)},
	}
	for _, e := range ents {
		live := New(1)
		if err := live.Put(e); err != nil {
			t.Fatal(err)
		}
		want, _ := live.Get(e.ID)
		rec := encodePut(e)
		if cap(rec) != len(rec) {
			t.Errorf("put %s: record buffer sized %d for %d bytes", e.ID, cap(rec), len(rec))
		}
		op, body, _, err := decodeWALRecord(rec)
		if err != nil || op != opPut {
			t.Fatalf("put %s: op %d, err %v", e.ID, op, err)
		}
		got, err := decodePut(body)
		if err != nil {
			t.Fatalf("put %s: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("put %s replays as\n%+v\nwant\n%+v", e.ID, got, want)
		}
	}
	for _, a := range [][]Annotation{nil, anns[:1], anns} {
		rec := encodeAnnotate("doc-000001", a)
		if cap(rec) != len(rec) {
			t.Errorf("annotate: record buffer sized %d for %d bytes", cap(rec), len(rec))
		}
		op, body, _, err := decodeWALRecord(rec)
		if err != nil || op != opAnnotate {
			t.Fatalf("annotate: op %d, err %v", op, err)
		}
		id, got, err := decodeAnnotate(body)
		if err != nil || id != "doc-000001" || !reflect.DeepEqual(got, a) {
			t.Errorf("annotate of %d replays as %q %+v (err %v)", len(a), id, got, err)
		}
		if !bytes.HasPrefix(rec[walHeaderSize:], RecordPrefix(true, "doc-000001")) {
			t.Errorf("annotate record does not start with RecordPrefix")
		}
	}
}

// TestBinaryBodyDecodeErrors: truncations, trailing bytes, overlong
// varints and counts or lengths past the end are refused, never
// decoded as something else.
func TestBinaryBodyDecodeErrors(t *testing.T) {
	rec := encodePut(&Entity{ID: "doc", Text: "text", Links: []string{"x"},
		Annotations: []Annotation{{Miner: "m", Key: "k", Start: 1, End: 3}}})
	body := rec[walHeaderSize+1:]
	for l := 0; l < len(body); l++ {
		if _, err := decodePut(body[:l]); err == nil {
			t.Errorf("truncated put body (%d of %d bytes) accepted", l, len(body))
		}
	}
	for name, bad := range map[string][]byte{
		"trailing byte":    append(append([]byte(nil), body...), 0),
		"overlong varint":  append([]byte{0x83, 0x00}, body[1:]...),
		"string past end":  {0x7f, 'd'},
		"varint overflow":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"huge link count":  {0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"annotation count": {1, 'd', 0x09, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := decodePut(bad); err == nil {
			t.Errorf("%s: put body accepted", name)
		}
		if _, _, err := decodeAnnotate(bad); err == nil {
			t.Errorf("%s: annotate body accepted", name)
		}
	}
}

// FuzzWALBody asserts the binary body decoders never panic on arbitrary
// bytes, and that a body they accept re-encodes to exactly the bytes it
// was decoded from — nothing read past a length, nothing left over.
func FuzzWALBody(f *testing.F) {
	for _, rec := range goldenRecords() {
		if op := rec.rec[walHeaderSize]; op == opPut || op == opAnnotate {
			f.Add(op == opAnnotate, rec.rec[walHeaderSize+1:])
		}
	}
	f.Add(false, []byte{})
	f.Add(true, []byte{0x01, 'x', 0x80})
	f.Fuzz(func(t *testing.T, annotate bool, body []byte) {
		var rec []byte
		if annotate {
			id, anns, err := decodeAnnotate(body)
			if err != nil {
				return
			}
			rec = encodeAnnotate(id, anns)
		} else {
			e, err := decodePut(body)
			if err != nil {
				return
			}
			rec = encodePut(e)
		}
		if !bytes.Equal(rec[walHeaderSize+1:], body) {
			t.Fatalf("accepted body does not re-encode to its input\n got %x\nwant %x", rec[walHeaderSize+1:], body)
		}
	})
}
