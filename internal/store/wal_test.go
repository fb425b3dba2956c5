package store

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

func TestWALRecordRoundTrip(t *testing.T) {
	cases := []struct {
		op   byte
		body string
	}{
		{opPut, "<entity id=\"a\"><text>hello</text></entity>"},
		{opDelete, "doc-000042"},
		{opAnnotate, "<annotate id=\"a\"></annotate>"},
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
		{opPut, "<entity id=\"a\"></entity>"},
		{opAnnotate, "<annotate id=\"a\"></annotate>"},
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

// TestXMLRecordMatchesMarshal pins the one-buffer encoders to the frames
// xml.Marshal plus encodeWALRecord produce — for bodies that fit the size
// hint and for ones that outgrow it (every apostrophe escapes to five
// bytes).
func TestXMLRecordMatchesMarshal(t *testing.T) {
	anns := []Annotation{{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "+", Feature: "pictures", Start: 4, End: 40}}
	ents := []*Entity{
		{ID: "a", Text: "plain"},
		{ID: "doc-000001", URL: "http://x/y", Source: "review", Title: "T & <t>", Date: "2004-03-02",
			Text: "It's \"great\"\n\tand <bold> & more\x01\xff", Links: []string{"b", "c"}, Annotations: anns},
		{ID: "quotes", Text: strings.Repeat("'", 3000)},
	}
	for _, e := range ents {
		body, err := xml.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodePut(e)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeWALRecord(opPut, body); !bytes.Equal(got, want) {
			t.Fatalf("put %s: one-buffer frame differs from Marshal's\n got %q\nwant %q", e.ID, got, want)
		}
	}
	for _, a := range [][]Annotation{nil, anns, append(anns, anns...)} {
		body, err := xml.Marshal(annotateRecord{ID: "doc-000001", Annotations: a})
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeAnnotate("doc-000001", a)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeWALRecord(opAnnotate, body); !bytes.Equal(got, want) {
			t.Fatalf("annotate: one-buffer frame differs from Marshal's\n got %q\nwant %q", got, want)
		}
	}
}

// FuzzWALRecord asserts the codec never panics on arbitrary bytes, and
// that anything it accepts re-encodes to the exact bytes it consumed.
func FuzzWALRecord(f *testing.F) {
	f.Add(encodeWALRecord(opPut, []byte("<entity id=\"a\"><text>t</text></entity>")))
	f.Add(encodeWALRecord(opDelete, []byte("doc-000001")))
	f.Add(encodeWALRecord(opAnnotate, []byte("<annotate id=\"x\"></annotate>")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
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
