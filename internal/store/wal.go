package store

import (
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
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
//	opPut         — the entity, as a binary put body (below)
//	opDelete      — the raw entity ID
//	opAnnotate    — the entity ID and the annotations to append, as a
//	                binary annotate body (below)
//	opPutXML      — legacy, replay only: the entity as compact XML
//	opAnnotateXML — legacy, replay only: an <annotate id="..."> element
//	                listing annotations
//	opDeleteV     — legacy, replay only: an 8-byte version stamp, then
//	                the raw entity ID; replayed as a plain delete
//
// The binary bodies are byte-exact: a string is its uvarint byte length
// and then its bytes, a count is a uvarint, and nothing is escaped.
//
//	put        ID URL Source Title Date Text
//	           count(Links) Link…  count(Annotations) Annotation…
//	annotate   ID count(Annotations) Annotation…
//	Annotation Miner Type Key Value Feature
//	           Sentence, Start, End−Start (zigzag varints)
//
// The span is a delta and the integers are signed, so every annotation
// an in-memory store can hold round-trips, spoiled spans included (the
// serving tier's recovery is built to meet them).
//
// Both bodies open with the entity ID, so a put or annotate record of
// one entity starts with a payload prefix of its own (RecordPrefix).
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
	opPutXML      byte = 1 // written by older versions only
	opDelete      byte = 2
	opAnnotateXML byte = 3 // written by older versions only
	opDeleteV     byte = 4 // written by older versions only
	opPut         byte = 5
	opAnnotate    byte = 6
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
	ln := binary.LittleEndian.Uint32(data)
	if crc32.ChecksumIEEE(data[:4]) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, nil, len(data), fmt.Errorf("%w: length checksum mismatch", errBadHeader)
	}
	if ln == 0 || ln > maxWALRecord {
		return 0, nil, len(data), fmt.Errorf("%w: implausible length %d", errBadHeader, ln)
	}
	total := walHeaderSize + int(ln)
	if len(data) < total {
		return 0, nil, len(data), errTornRecord
	}
	payload := data[walHeaderSize:total]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[8:12]) {
		return 0, nil, total, errCorruptRecord
	}
	return payload[0], payload[1:], total, nil
}

// RecordPrefix returns the first payload bytes of the WAL record that
// Put (annotate false) or Annotate (annotate true) logs for the entity
// id: the op byte and the length-prefixed ID. Fault-injection tests
// match appends against it to fail one chosen record.
func RecordPrefix(annotate bool, id string) []byte {
	op := opPut
	if annotate {
		op = opAnnotate
	}
	return appendString([]byte{op}, id)
}

// encodePut frames an opPut record of e in one exactly sized buffer.
func encodePut(e *Entity) []byte {
	return appendPutRecord(make([]byte, 0, walHeaderSize+1+putBodySize(e)), e)
}

// encodeAnnotate frames an opAnnotate record in one exactly sized
// buffer.
func encodeAnnotate(id string, anns []Annotation) []byte {
	return appendAnnotateRecord(make([]byte, 0, walHeaderSize+1+stringSize(id)+annotationsSize(anns)), id, anns)
}

// appendBatch appends to b the records PutBatch logs: each entity's put
// record and then, when anns[i] is not empty, its annotate record — byte
// for byte what Put and Annotate would have logged one call at a time.
// b grows at most once, to the batch's exact size. It returns the
// extended buffer and the batch's record count.
func appendBatch(b []byte, ents []*Entity, anns [][]Annotation) ([]byte, int) {
	n, records := 0, 0
	for i, e := range ents {
		n += walHeaderSize + 1 + putBodySize(e)
		records++
		if i < len(anns) && len(anns[i]) > 0 {
			n += walHeaderSize + 1 + stringSize(e.ID) + annotationsSize(anns[i])
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
	b = append(append(b, make([]byte, walHeaderSize)...), opPut)
	b = appendPutBody(b, e)
	sealWALRecord(b[start:])
	return b
}

// appendAnnotateRecord appends a sealed opAnnotate record to b.
func appendAnnotateRecord(b []byte, id string, anns []Annotation) []byte {
	start := len(b)
	b = append(append(b, make([]byte, walHeaderSize)...), opAnnotate)
	b = appendAnnotations(appendString(b, id), anns)
	sealWALRecord(b[start:])
	return b
}

// putBodySize is the exact length of appendPutBody's encoding of e.
func putBodySize(e *Entity) int {
	n := stringSize(e.ID) + stringSize(e.URL) + stringSize(e.Source) + stringSize(e.Title) +
		stringSize(e.Date) + stringSize(e.Text) + uvarintSize(uint64(len(e.Links))) + annotationsSize(e.Annotations)
	for _, l := range e.Links {
		n += stringSize(l)
	}
	return n
}

func appendPutBody(b []byte, e *Entity) []byte {
	for _, s := range [...]string{e.ID, e.URL, e.Source, e.Title, e.Date, e.Text} {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(e.Links)))
	for _, l := range e.Links {
		b = appendString(b, l)
	}
	return appendAnnotations(b, e.Annotations)
}

func appendAnnotations(b []byte, anns []Annotation) []byte {
	b = binary.AppendUvarint(b, uint64(len(anns)))
	for i := range anns {
		a := &anns[i]
		for _, s := range [...]string{a.Miner, a.Type, a.Key, a.Value, a.Feature} {
			b = appendString(b, s)
		}
		b = binary.AppendVarint(b, int64(a.Sentence))
		b = binary.AppendVarint(b, int64(a.Start))
		b = binary.AppendVarint(b, int64(a.End-a.Start))
	}
	return b
}

func annotationsSize(anns []Annotation) int {
	n := uvarintSize(uint64(len(anns)))
	for i := range anns {
		a := &anns[i]
		n += stringSize(a.Miner) + stringSize(a.Type) + stringSize(a.Key) + stringSize(a.Value) +
			stringSize(a.Feature) + varintSize(int64(a.Sentence)) + varintSize(int64(a.Start)) + varintSize(int64(a.End-a.Start))
	}
	return n
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func uvarintSize(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// varintSize is the length of binary.AppendVarint's encoding of x: the
// uvarint of its zigzag mapping.
func varintSize(x int64) int { return uvarintSize(uint64(x<<1) ^ uint64(x>>63)) }

// Smallest encodings of one link and one annotation: the count check
// in bodyReader.count uses them to refuse a count the remaining bytes
// cannot hold before allocating for it.
const (
	minLinkSize       = 1
	minAnnotationSize = 8
)

// decodePut parses an opPut body. Every string field of the entity is a
// substring of one copy of the body.
func decodePut(body []byte) (*Entity, error) {
	r := bodyReader{s: string(body)}
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

// decodeAnnotate parses an opAnnotate body.
func decodeAnnotate(body []byte) (id string, anns []Annotation, err error) {
	r := bodyReader{s: string(body)}
	id, anns = r.string(), r.annotations()
	if err = r.end("annotate"); err != nil {
		return "", nil, err
	}
	return id, anns, nil
}

// bodyReader decodes a binary put or annotate body. The first error
// sticks: later reads return zero values, and end reports it. Every
// varint must be in its shortest form and every length and count must
// fit in the bytes left, so an accepted body re-encodes to exactly its
// own bytes.
type bodyReader struct {
	s   string
	off int
	err error
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
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.s)-r.off) {
		r.fail("string runs past the body")
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
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
