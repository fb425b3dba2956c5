package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
		{Miner: "sentiment", Type: "polarity", Key: "nr70", Value: "-", Feature: "nr70", Sentence: 4, Start: 41, End: 60},
	}
	// More distinct strings than the table scans: entries past tabScan
	// are found through its map.
	var many []Annotation
	for i := range 3 * tabScan {
		many = append(many, Annotation{Miner: "sentiment", Type: "polarity", Key: fmt.Sprint("s", i%40), Value: "+", Feature: fmt.Sprint("f", i)})
	}
	ents := []*Entity{
		{ID: "a"},
		{ID: "empty-slices", Text: "t", Links: []string{}, Annotations: []Annotation{}},
		{ID: "doc-000001", URL: "http://x/y", Source: "review", Title: "T & <t>", Date: "2004-03-02",
			Text: "It's \"great\"\n\tand <bold> & more\x01\xff\x00", Links: []string{"b", "", "c", "b"}, Annotations: anns},
		{ID: "long", Text: strings.Repeat("'", 3000)},
		{ID: "doc-000002", Source: "doc-000002", Title: "doc-000002", Annotations: many},
	}
	for _, e := range ents {
		live := New(1)
		if err := live.Put(e); err != nil {
			t.Fatal(err)
		}
		want, _ := live.Get(e.ID)
		rec := encodePut(e)
		if bound := putRecordBound(e); cap(rec) != bound || len(rec) > bound {
			t.Errorf("put %s: %d bytes in a buffer of %d, bound %d", e.ID, len(rec), cap(rec), bound)
		}
		op, body, _, err := decodeWALRecord(rec)
		if err != nil || op != opPut {
			t.Fatalf("put %s: op %d, err %v", e.ID, op, err)
		}
		got, err := decodePut(body, true)
		if err != nil {
			t.Fatalf("put %s: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("put %s replays as\n%+v\nwant\n%+v", e.ID, got, want)
		}
		if !bytes.HasPrefix(rec[walHeaderSize:], RecordPrefix(false, e.ID)) {
			t.Errorf("put %s record does not start with RecordPrefix", e.ID)
		}
	}
	for _, a := range [][]Annotation{nil, anns[:1], anns, many} {
		rec := encodeAnnotate("doc-000001", a)
		if bound := annotateRecordBound("doc-000001", a); cap(rec) != bound || len(rec) > bound {
			t.Errorf("annotate: %d bytes in a buffer of %d, bound %d", len(rec), cap(rec), bound)
		}
		op, body, _, err := decodeWALRecord(rec)
		if err != nil || op != opAnnotate {
			t.Fatalf("annotate: op %d, err %v", op, err)
		}
		id, got, err := decodeAnnotate(body, true)
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
// decoded as something else, by the table decoder and the legacy plain
// one alike.
func TestBinaryBodyDecodeErrors(t *testing.T) {
	rec := encodePut(&Entity{ID: "doc", Text: "text", Links: []string{"x"},
		Annotations: []Annotation{{Miner: "m", Key: "k", Start: 1, End: 3}}})
	body := rec[walHeaderSize+1:]
	for l := 0; l < len(body); l++ {
		if _, err := decodePut(body[:l], true); err == nil {
			t.Errorf("truncated put body (%d of %d bytes) accepted", l, len(body))
		}
	}
	for _, c := range []struct {
		name         string
		table, plain []byte
	}{
		{"trailing byte", append(append([]byte(nil), body...), 0), nil},
		{"overlong varint", append([]byte{0x86, 0x00}, body[1:]...), []byte{0x83, 0x00, 'd', 'o', 'c'}},
		{"string past end", []byte{0x7e, 'd'}, []byte{0x7f, 'd'}},
		{"varint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, nil},
		{"huge link count", []byte{0, 1, 1, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}, []byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"annotation count", []byte{2, 'd', 0x09, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 'd', 0x09, 0, 0, 0, 0, 0, 0, 0, 0}},
	} {
		if c.plain == nil {
			c.plain = c.table
		}
		for _, refs := range []bool{true, false} {
			bad := c.plain
			if refs {
				bad = c.table
			}
			if _, err := decodePut(bad, refs); err == nil {
				t.Errorf("%s: put body accepted (refs %v)", c.name, refs)
			}
			if _, _, err := decodeAnnotate(bad, refs); err == nil {
				t.Errorf("%s: annotate body accepted (refs %v)", c.name, refs)
			}
		}
	}
}

// TestStringTableCanonical: the one encoding of a body writes each
// string inline once and every repeat as a reference to an entry
// already written. Hand-built bodies that write a string any other way
// are refused, so no two bodies decode to the same value.
func TestStringTableCanonical(t *testing.T) {
	// annotate "d": one annotation, Miner "d", Type, Key, Value and
	// Feature "", at sentence 0, span 0..0.
	valid := []byte{0x02, 'd', 0x01, 0x01, 0x00, 0x03, 0x03, 0x03, 0, 0, 0}
	if got := encodeAnnotate("d", []Annotation{{Miner: "d"}})[walHeaderSize+1:]; !bytes.Equal(got, valid) {
		t.Fatalf("encoder writes %x, want %x", got, valid)
	}
	if _, _, err := decodeAnnotate(valid, true); err != nil {
		t.Fatalf("canonical body refused: %v", err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"inline repeat", []byte{0x02, 'd', 0x01, 0x02, 'd', 0x00, 0x03, 0x03, 0x03, 0, 0, 0}},
		{"inline repeat of the empty string", []byte{0x02, 'd', 0x01, 0x01, 0x00, 0x00, 0x03, 0x03, 0, 0, 0}},
		{"reference past the table", []byte{0x02, 'd', 0x01, 0x09, 0x00, 0x03, 0x03, 0x03, 0, 0, 0}},
		{"reference to an entry not yet written", []byte{0x02, 'd', 0x01, 0x03, 0x00, 0x03, 0x03, 0x03, 0, 0, 0}},
		{"overlong reference", []byte{0x02, 'd', 0x01, 0x81, 0x00, 0x00, 0x03, 0x03, 0x03, 0, 0, 0}},
	} {
		if _, _, err := decodeAnnotate(c.body, true); err == nil {
			t.Errorf("%s: annotate body accepted", c.name)
		}
	}
	// A put whose URL repeats its ID inline.
	if _, err := decodePut([]byte{0x02, 'd', 0x02, 'd', 0x03, 0x03, 0x03, 0x03, 0x00, 0x00}, true); err == nil {
		t.Error("put body with an inline repeat accepted")
	}
	if _, err := decodePut([]byte{0x02, 'd', 0x01, 0x01, 0x01, 0x01, 0x01, 0x00, 0x00}, true); err != nil {
		t.Errorf("canonical put body refused: %v", err)
	}
}

// FuzzWALBody asserts the binary body decoders never panic on arbitrary
// bytes, and that a body they accept re-encodes to exactly the bytes it
// was decoded from — nothing read past a length, nothing left over. A
// legacy plain body (op 5 or 6) has no encoder left: the value it
// decodes to must survive today's encoding unchanged.
func FuzzWALBody(f *testing.F) {
	for _, rec := range goldenRecords() {
		if op := rec.rec[walHeaderSize]; op == opPut || op == opAnnotate {
			f.Add(op, rec.rec[walHeaderSize+1:])
		}
	}
	f.Add(opPut, []byte{})
	f.Add(opAnnotate, []byte{0x02, 'x', 0x80})
	legacy, err := legacyGoldenRecords()
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range legacy {
		f.Add(rec.rec[walHeaderSize], rec.rec[walHeaderSize+1:])
	}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		var rec []byte
		var value any
		switch op {
		case opAnnotate, opAnnotatePlain:
			id, anns, err := decodeAnnotate(body, op == opAnnotate)
			if err != nil {
				return
			}
			rec, value = encodeAnnotate(id, anns), []any{id, anns}
			if id, anns, err = decodeAnnotate(rec[walHeaderSize+1:], true); err != nil || !reflect.DeepEqual([]any{id, anns}, value) {
				t.Fatalf("annotate %q %+v re-encodes to a body that decodes as %q %+v (err %v)", value.([]any)[0], value.([]any)[1], id, anns, err)
			}
		case opPut, opPutPlain:
			e, err := decodePut(body, op == opPut)
			if err != nil {
				return
			}
			rec = encodePut(e)
			if got, err := decodePut(rec[walHeaderSize+1:], true); err != nil || !reflect.DeepEqual(got, e) {
				t.Fatalf("put %+v re-encodes to a body that decodes as %+v (err %v)", e, got, err)
			}
		default:
			return
		}
		if (op == opPut || op == opAnnotate) && !bytes.Equal(rec[walHeaderSize+1:], body) {
			t.Fatalf("accepted body does not re-encode to its input\n got %x\nwant %x", rec[walHeaderSize+1:], body)
		}
	})
}

// BenchmarkAppendBatch prices framing one PutBatch commit: 32 documents
// of about 6 KB, each with 13 sentiment annotations over five subjects
// and seven features, appended to a reused buffer.
func BenchmarkAppendBatch(b *testing.B) {
	subjects := []string{"NR70", "D100", "ZX900", "Axiom Therapeutics", "Minolta"}
	features := []string{"pictures", "battery life", "screen", "NR70", "price", "lens", "zoom"}
	var ents []*Entity
	var anns [][]Annotation
	for i := range 32 {
		ents = append(ents, &Entity{ID: fmt.Sprintf("doc-%06d", i), Source: "review", Title: fmt.Sprint("bulk ", i), Date: "2004-03-02",
			Text: strings.Repeat("The NR70 takes excellent pictures, and the battery life is great. ", 90)})
		var a []Annotation
		for k := range 13 {
			a = append(a, Annotation{Miner: "sentiment", Type: "polarity", Key: subjects[(i+k)%len(subjects)], Value: [2]string{"+", "-"}[k%2],
				Feature: features[i*k%len(features)], Sentence: 3 * k, Start: 200 * k, End: 200*k + 60})
		}
		anns = append(anns, a)
	}
	buf, _ := appendBatch(nil, ents, anns)
	b.ResetTimer()
	for range b.N {
		buf, _ = appendBatch(buf[:0], ents, anns)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ents)), "ns/doc")
	b.ReportMetric(float64(len(buf))/float64(len(ents)), "B/doc")
}
