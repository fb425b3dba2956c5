package store

import (
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// The write-ahead log is a sequence of length-prefixed, checksummed
// records, one per acknowledged mutation:
//
//	[4B little-endian payload length][4B CRC32-IEEE of the length bytes]
//	[4B CRC32-IEEE of payload][payload]
//
// where payload is one op byte followed by the op body:
//
//	opPut           — the entity, as a binary put body (below)
//	opDelete        — the raw entity ID
//	opAnnotate      — the entity ID and the annotations to append, as a
//	                  binary annotate body (below)
//	opPutPlain      — legacy, replay only: a put body without a string
//	                  table
//	opAnnotatePlain — legacy, replay only: an annotate body without a
//	                  string table
//	opPutXML        — legacy, replay only: the entity as compact XML
//	opAnnotateXML   — legacy, replay only: an <annotate id="..."> element
//	                  listing annotations
//	opDeleteV       — legacy, replay only: an 8-byte version stamp, then
//	                  the raw entity ID; replayed as a plain delete
//
// The binary bodies are byte-exact: a count is a uvarint, and nothing
// is escaped.
//
//	put        ID URL Source Title Date Text
//	           count(Links) Link…  count(Annotations) Annotation…
//	annotate   ID count(Annotations) Annotation…
//	Annotation Miner Type Key Value Feature
//	           Sentence, Start, End−Start (zigzag varints)
//
// Each body writes every string once. A string is one uvarint x and,
// when x is even, x/2 bytes that follow it inline; an odd x refers to
// entry (x−1)/2 of the record's string table, whose entries are the
// body's inline strings in order. A string the table holds is always a
// reference, and a reference names an entry already written, so the
// encoding of a body is unique: the decoder refuses an inline repeat
// and a reference past the table. The table is the record's own, so a
// record still decodes alone. A legacy plain body writes every string
// as its uvarint length and its bytes.
//
// The span is a delta and the integers are signed, so every annotation
// an in-memory store can hold round-trips, spoiled spans included (the
// serving tier's recovery is built to meet them).
//
// Both bodies open with the entity ID, table entry 0, so a put or
// annotate record of one entity starts with a payload prefix of its own
// (RecordPrefix).
//
// The length prefix gives resync-free sequential scanning, and the two
// checksums split corruption into three distinguishable classes: a
// record that runs past the end of the file under a valid header is a
// torn tail (a crash mid-append — truncated away); a framed record whose
// payload checksum fails is bit rot (quarantined, scanning continues);
// and a header whose own checksum fails means the length cannot be
// trusted — framing is lost for everything after it. Without the header
// checksum a single bit flip in a length field would misframe the rest
// of the log and masquerade as a torn tail, silently truncating
// acknowledged records.

// WAL op codes.
const (
	opPutXML        byte = 1 // written by older versions only
	opDelete        byte = 2
	opAnnotateXML   byte = 3 // written by older versions only
	opDeleteV       byte = 4 // written by older versions only
	opPutPlain      byte = 5 // written by older versions only
	opAnnotatePlain byte = 6 // written by older versions only
	opAnnotate      byte = 7
	opPut           byte = 8
)

// legacyDeleteID returns the entity ID of an opDeleteV body, which
// stores behind a replication tier wrote with the delete's version stamp
// in front of the ID. Nothing reads the stamp any more.
func legacyDeleteID(body []byte) (string, error) {
	if len(body) < 8 {
		return "", fmt.Errorf("store: short versioned-delete body (%d bytes)", len(body))
	}
	return string(body[8:]), nil
}

// walHeaderSize is the length prefix plus the header and payload
// checksums.
const walHeaderSize = 12

// maxWALRecord bounds one record's payload; a length above it is treated
// as framing corruption rather than a record to allocate for.
const maxWALRecord = 64 << 20

var (
	// errTornRecord reports a record that runs past the end of the log
	// under a valid header: the tail of a crashed append. Recovery
	// truncates the log here.
	errTornRecord = errors.New("store: torn wal record")
	// errCorruptRecord reports a complete record whose payload checksum
	// does not match: bit rot. Recovery quarantines it and keeps
	// scanning.
	errCorruptRecord = errors.New("store: corrupt wal record")
	// errBadHeader reports a header whose self-checksum fails (or a
	// checksum-valid header carrying a length the writer never emits):
	// the length cannot be trusted, so framing is lost for every byte
	// after it. Recovery quarantines the remaining tail and degrades.
	errBadHeader = errors.New("store: corrupt wal record header")
)

// encodeWALRecord frames one op into a WAL record.
func encodeWALRecord(op byte, body []byte) []byte {
	rec := make([]byte, walHeaderSize+1+len(body))
	rec[walHeaderSize] = op
	copy(rec[walHeaderSize+1:], body)
	sealWALRecord(rec)
	return rec
}

// sealWALRecord fills in the header of a record whose payload (op byte
// and body) already sits behind walHeaderSize reserved bytes.
func sealWALRecord(rec []byte) {
	payload := rec[walHeaderSize:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[0:4]))
	binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(payload))
}

// decodeWALRecord parses the first record in data. n is the number of
// bytes the record occupies: the full frame on success or payload
// checksum failure (the caller can skip it), and the remaining byte
// count on a torn tail or corrupt header (the caller truncates or
// quarantines the rest). The returned body aliases data.
func decodeWALRecord(data []byte) (op byte, body []byte, n int, err error) {
	if len(data) < walHeaderSize {
		return 0, nil, len(data), errTornRecord
	}
	total, err := walFrameLen(data)
	if err != nil {
		return 0, nil, len(data), err
	}
	if len(data) < total {
		return 0, nil, len(data), errTornRecord
	}
	if err := checkPayload(data[:total]); err != nil {
		return 0, nil, total, err
	}
	return data[walHeaderSize], data[walHeaderSize+1 : total], total, nil
}

// walFrameLen checks a record header and returns the length of the
// frame it announces.
func walFrameLen(hdr []byte) (int, error) {
	ln := binary.LittleEndian.Uint32(hdr)
	if crc32.ChecksumIEEE(hdr[:4]) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, fmt.Errorf("%w: length checksum mismatch", errBadHeader)
	}
	if ln == 0 || ln > maxWALRecord {
		return 0, fmt.Errorf("%w: implausible length %d", errBadHeader, ln)
	}
	return walHeaderSize + int(ln), nil
}

// checkPayload checks a whole frame's payload checksum.
func checkPayload(rec []byte) error {
	if crc32.ChecksumIEEE(rec[walHeaderSize:]) != binary.LittleEndian.Uint32(rec[8:12]) {
		return errCorruptRecord
	}
	return nil
}

// readWALRecord is decodeWALRecord over a stream: it reads the record
// at the head of r, of which rest bytes are left in the log, into buf,
// grown to the frame's length, so only one record is held at a time. n
// and err mean what they mean for decodeWALRecord; any other error is
// the read's. The returned body aliases the returned buffer.
func readWALRecord(r io.Reader, rest int64, buf []byte) (op byte, body []byte, n int64, _ []byte, err error) {
	if rest < walHeaderSize {
		return 0, nil, rest, buf, errTornRecord
	}
	buf = slices.Grow(buf[:0], walHeaderSize)[:walHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, 0, buf, err
	}
	total, err := walFrameLen(buf)
	if err != nil {
		return 0, nil, rest, buf, err
	}
	if rest < int64(total) {
		return 0, nil, rest, buf, errTornRecord
	}
	buf = slices.Grow(buf, total-walHeaderSize)[:total]
	if _, err := io.ReadFull(r, buf[walHeaderSize:]); err != nil {
		return 0, nil, 0, buf, err
	}
	if err := checkPayload(buf); err != nil {
		return 0, nil, int64(total), buf, err
	}
	return buf[walHeaderSize], buf[walHeaderSize+1:], int64(total), buf, nil
}

// RecordPrefix returns the first payload bytes of the WAL record that
// Put (annotate false) or Annotate (annotate true) logs for the entity
// id: the op byte and the ID, written inline as the table's first
// entry. Fault-injection tests match appends against it to fail one
// chosen record.
func RecordPrefix(annotate bool, id string) []byte {
	op := opPut
	if annotate {
		op = opAnnotate
	}
	var w bodyWriter
	w.b = []byte{op}
	w.string(id)
	return w.b
}

// encodePut frames an opPut record of e in one buffer.
func encodePut(e *Entity) []byte {
	return appendPutRecord(make([]byte, 0, putRecordBound(e)), e)
}

// encodeAnnotate frames an opAnnotate record in one buffer.
func encodeAnnotate(id string, anns []Annotation) []byte {
	return appendAnnotateRecord(make([]byte, 0, annotateRecordBound(id, anns)), id, anns)
}

// appendBatch appends to b the records PutBatch logs: each entity's put
// record and then, when anns[i] is not empty, its annotate record — byte
// for byte what Put and Annotate would have logged one call at a time.
// b grows at most once, to the batch's bound. It returns the extended
// buffer and the batch's record count.
func appendBatch(b []byte, ents []*Entity, anns [][]Annotation) ([]byte, int) {
	n, records := 0, 0
	for i, e := range ents {
		n += putRecordBound(e)
		records++
		if i < len(anns) && len(anns[i]) > 0 {
			n += annotateRecordBound(e.ID, anns[i])
			records++
		}
	}
	b = slices.Grow(b, n)
	for i, e := range ents {
		b = appendPutRecord(b, e)
		if i < len(anns) && len(anns[i]) > 0 {
			b = appendAnnotateRecord(b, e.ID, anns[i])
		}
	}
	return b, records
}

// appendPutRecord appends a sealed opPut record of e to b.
func appendPutRecord(b []byte, e *Entity) []byte {
	start := len(b)
	w := bodyWriter{b: append(append(b, make([]byte, walHeaderSize)...), opPut)}
	w.put(e)
	sealWALRecord(w.b[start:])
	return w.b
}

// appendAnnotateRecord appends a sealed opAnnotate record to b.
func appendAnnotateRecord(b []byte, id string, anns []Annotation) []byte {
	start := len(b)
	w := bodyWriter{b: append(append(b, make([]byte, walHeaderSize)...), opAnnotate)}
	w.annotate(id, anns)
	sealWALRecord(w.b[start:])
	return w.b
}

// putRecordBound is the length of appendPutRecord's record of e were
// every string written inline. A reference is never longer than the
// string it stands for while the table holds fewer than 64 entries, so
// this bounds the record, and a buffer of it takes the record whole.
func putRecordBound(e *Entity) int {
	w := bodyWriter{sizing: true}
	w.put(e)
	return walHeaderSize + 1 + w.n
}

// annotateRecordBound bounds appendAnnotateRecord's record as
// putRecordBound bounds a put record.
func annotateRecordBound(id string, anns []Annotation) int {
	w := bodyWriter{sizing: true}
	w.annotate(id, anns)
	return walHeaderSize + 1 + w.n
}

// bodyWriter encodes one put or annotate body against the body's own
// string table, which lives in the struct, on its caller's stack. With
// sizing set it appends nothing: it counts in n the bytes the body would
// take with every string inline, so one walk both bounds and writes a
// body.
type bodyWriter struct {
	b      []byte
	n      int
	sizing bool
	tab    strtab
}

func (w *bodyWriter) uvarint(x uint64) {
	if w.sizing {
		w.n += uvarintSize(x)
	} else {
		w.b = binary.AppendUvarint(w.b, x)
	}
}

func (w *bodyWriter) varint(x int64) { w.uvarint(uint64(x<<1) ^ uint64(x>>63)) }

// string writes s as a reference when the table holds it, and inline,
// as the table's next entry, when it does not.
func (w *bodyWriter) string(s string) {
	if w.sizing {
		w.n += uvarintSize(uint64(len(s))<<1) + len(s)
		return
	}
	if i, ok := w.tab.find(s); ok {
		w.b = binary.AppendUvarint(w.b, uint64(i)<<1|1)
		return
	}
	w.tab.add(s)
	w.b = append(binary.AppendUvarint(w.b, uint64(len(s))<<1), s...)
}

func (w *bodyWriter) put(e *Entity) {
	for _, s := range [...]string{e.ID, e.URL, e.Source, e.Title, e.Date, e.Text} {
		w.string(s)
	}
	w.uvarint(uint64(len(e.Links)))
	for _, l := range e.Links {
		w.string(l)
	}
	w.annotations(e.Annotations)
}

func (w *bodyWriter) annotate(id string, anns []Annotation) {
	w.string(id)
	w.annotations(anns)
}

func (w *bodyWriter) annotations(anns []Annotation) {
	w.uvarint(uint64(len(anns)))
	for i := range anns {
		a := &anns[i]
		for _, s := range [...]string{a.Miner, a.Type, a.Key, a.Value, a.Feature} {
			w.string(s)
		}
		w.varint(int64(a.Sentence))
		w.varint(int64(a.Start))
		w.varint(int64(a.End - a.Start))
	}
}

func uvarintSize(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// strtab is one record body's string table: entry i is the i-th string
// the body holds inline. While it is small, its entries sit in an array
// and are found by a scan; past tabScan entries a map indexes them, so a
// body with many distinct strings is still encoded and decoded in
// linear time.
type strtab struct {
	n     int
	first [tabScan]string
	rest  []string       // entries tabScan and on
	index map[string]int // every entry, once there are more than tabScan
}

// tabScan is the number of table entries found by a scan. An annotate
// record of the serving tier holds about ten.
const tabScan = 32

func (t *strtab) find(s string) (int, bool) {
	if t.index != nil {
		i, ok := t.index[s]
		return i, ok
	}
	for i := range t.n {
		if t.first[i] == s {
			return i, true
		}
	}
	return 0, false
}

func (t *strtab) add(s string) {
	if t.n < tabScan {
		t.first[t.n] = s
		t.n++
		return
	}
	if t.index == nil {
		t.index = make(map[string]int, 2*tabScan)
		for i, e := range t.first {
			t.index[e] = i
		}
	}
	t.index[s] = t.n
	t.rest = append(t.rest, s)
	t.n++
}

func (t *strtab) at(i int) string {
	if i < tabScan {
		return t.first[i]
	}
	return t.rest[i-tabScan]
}

// Smallest encodings of one link and one annotation: the count check
// in bodyReader.count uses them to refuse a count the remaining bytes
// cannot hold before allocating for it.
const (
	minLinkSize       = 1
	minAnnotationSize = 8
)

// decodePut parses a put body, one with a string table (refs) or a
// legacy plain one. Every string field of the entity is a substring of
// one copy of the body.
func decodePut(body []byte, refs bool) (*Entity, error) {
	r := bodyReader{s: string(body), refs: refs}
	e := &Entity{ID: r.string(), URL: r.string(), Source: r.string(), Title: r.string(), Date: r.string(), Text: r.string()}
	if n := r.count(minLinkSize); n > 0 {
		e.Links = make([]string, n)
		for i := range e.Links {
			e.Links[i] = r.string()
		}
	}
	e.Annotations = r.annotations()
	if err := r.end("put"); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeAnnotate parses an annotate body, one with a string table
// (refs) or a legacy plain one.
func decodeAnnotate(body []byte, refs bool) (id string, anns []Annotation, err error) {
	r := bodyReader{s: string(body), refs: refs}
	id, anns = r.string(), r.annotations()
	if err = r.end("annotate"); err != nil {
		return "", nil, err
	}
	return id, anns, nil
}

// bodyReader decodes a binary put or annotate body, with references
// into the body's string table when refs is set. The first error
// sticks: later reads return zero values, and end reports it. Every
// varint must be in its shortest form, every length and count must fit
// in the bytes left, and every string must be written as the encoder
// writes it, so an accepted body re-encodes to exactly its own bytes.
type bodyReader struct {
	s    string
	off  int
	err  error
	refs bool
	tab  strtab
}

func (r *bodyReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at byte %d", what, r.off)
	}
}

func (r *bodyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	for i, shift := r.off, uint(0); i < len(r.s); i, shift = i+1, shift+7 {
		b := r.s[i]
		if shift == 63 && b > 1 {
			r.fail("varint overflows 64 bits")
			return 0
		}
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if b == 0 && i > r.off {
				r.fail("varint not in shortest form")
				return 0
			}
			r.off = i + 1
			return x
		}
	}
	r.fail("truncated varint")
	return 0
}

// int reads a zigzag varint that must fit in an int.
func (r *bodyReader) int() int {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if x < math.MinInt || x > math.MaxInt {
		r.fail("value out of range")
		return 0
	}
	return int(x)
}

func (r *bodyReader) string() string {
	x := r.uvarint()
	if r.err != nil {
		return ""
	}
	n := x
	if r.refs {
		if x&1 == 1 {
			if x>>1 >= uint64(r.tab.n) {
				r.fail("reference past the string table")
				return ""
			}
			return r.tab.at(int(x >> 1))
		}
		n = x >> 1
	}
	if n > uint64(len(r.s)-r.off) {
		r.fail("string runs past the body")
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	if r.refs {
		if _, ok := r.tab.find(s); ok {
			r.fail("inline repeat of a table string")
			return ""
		}
		r.tab.add(s)
	}
	r.off += int(n)
	return s
}

// count reads an element count, refusing one whose elements, at minSize
// bytes each, cannot fit in what is left of the body.
func (r *bodyReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64((len(r.s)-r.off)/minSize) {
		r.fail("count runs past the body")
		return 0
	}
	return int(n)
}

func (r *bodyReader) annotations() []Annotation {
	n := r.count(minAnnotationSize)
	if n == 0 {
		return nil
	}
	anns := make([]Annotation, n)
	for i := range anns {
		a := &anns[i]
		a.Miner, a.Type, a.Key, a.Value, a.Feature = r.string(), r.string(), r.string(), r.string(), r.string()
		a.Sentence, a.Start = r.int(), r.int()
		a.End = a.Start + r.int() // wraps back exactly as the encoder's End-Start wrapped
	}
	return anns
}

// end reports the first decoding error, or trailing bytes after a
// complete body.
func (r *bodyReader) end(kind string) error {
	if r.err == nil && r.off != len(r.s) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return fmt.Errorf("store: decode %s record: %w", kind, r.err)
	}
	return nil
}

// decodeEntityRecord decodes the entity of a put record of any op this
// store replays.
func decodeEntityRecord(op byte, body []byte) (*Entity, error) {
	switch op {
	case opPut, opPutPlain:
		return decodePut(body, op == opPut)
	case opPutXML:
		return ParseEntity(body)
	}
	return nil, fmt.Errorf("store: op %d is not a put", op)
}

// decodeAnnotateRecord decodes an annotate record of any op this store
// replays.
func decodeAnnotateRecord(op byte, body []byte) (id string, anns []Annotation, err error) {
	switch op {
	case opAnnotate, opAnnotatePlain:
		return decodeAnnotate(body, op == opAnnotate)
	case opAnnotateXML:
		return decodeXMLAnnotate(body)
	}
	return "", nil, fmt.Errorf("store: op %d is not an annotate", op)
}

// xmlAnnotateRecord is the body of a legacy opAnnotateXML record.
type xmlAnnotateRecord struct {
	XMLName     xml.Name     `xml:"annotate"`
	ID          string       `xml:"id,attr"`
	Annotations []Annotation `xml:"annotation"`
}

// decodeXMLAnnotate parses a legacy opAnnotateXML body.
func decodeXMLAnnotate(body []byte) (id string, anns []Annotation, err error) {
	var rec xmlAnnotateRecord
	if err := xml.Unmarshal(body, &rec); err != nil {
		return "", nil, fmt.Errorf("store: decode annotate record: %w", err)
	}
	return rec.ID, rec.Annotations, nil
}
