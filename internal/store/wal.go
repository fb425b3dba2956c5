package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// The write-ahead log is a sequence of length-prefixed, checksummed
// records, one per acknowledged mutation:
//
//	[4B little-endian payload length][4B CRC32-IEEE of the length bytes]
//	[4B CRC32-IEEE of payload][payload]
//
// where payload is one op byte followed by the op body:
//
//	opPut      — the entity, as compact XML
//	opDelete   — the raw entity ID
//	opAnnotate — an <annotate id="..."> element listing annotations
//	opDeleteV  — legacy, replay only: an 8-byte version stamp, then the
//	             raw entity ID; replayed as a plain delete
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
	opPut      byte = 1
	opDelete   byte = 2
	opAnnotate byte = 3
	opDeleteV  byte = 4 // written by older versions only
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

// xmlWriters recycles the 4 KB buffer encoding/xml would otherwise
// allocate for every record it encodes.
var xmlWriters = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

// encodeXMLRecord frames v's XML encoding — byte for byte what
// xml.Marshal returns — as an op record, encoding straight into the frame
// behind its reserved header and op byte: one buffer and no copy per
// record when sizeHint covers the body.
func encodeXMLRecord(op byte, v any, sizeHint int) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, walHeaderSize+1, walHeaderSize+1+sizeHint))
	bw := xmlWriters.Get().(*bufio.Writer)
	bw.Reset(buf)
	enc := xml.NewEncoder(bw) // adopts bw rather than wrapping it
	err := enc.Encode(v)
	if err == nil {
		err = enc.Close()
	}
	bw.Reset(nil)
	xmlWriters.Put(bw)
	if err != nil {
		return nil, err
	}
	rec := buf.Bytes()
	rec[walHeaderSize] = op
	sealWALRecord(rec)
	return rec, nil
}

// encodePut frames an opPut record of e, its size hint allowing for XML
// escapes in the text and for the markup around each field.
func encodePut(e *Entity) ([]byte, error) {
	hint := len(e.ID) + len(e.URL) + len(e.Source) + len(e.Title) + len(e.Date) +
		len(e.Text) + len(e.Text)/8 + 64*len(e.Links) + 160*len(e.Annotations) + 128
	return encodeXMLRecord(opPut, e, hint)
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

// annotateRecord is the XML body of an opAnnotate record.
type annotateRecord struct {
	XMLName     xml.Name     `xml:"annotate"`
	ID          string       `xml:"id,attr"`
	Annotations []Annotation `xml:"annotation"`
}

// encodeAnnotate frames an opAnnotate record.
func encodeAnnotate(id string, anns []Annotation) ([]byte, error) {
	return encodeXMLRecord(opAnnotate, &annotateRecord{ID: id, Annotations: anns}, len(id)+160*len(anns)+64)
}

// decodeAnnotate parses an opAnnotate body.
func decodeAnnotate(body []byte) (annotateRecord, error) {
	var rec annotateRecord
	if err := xml.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("store: decode annotate record: %w", err)
	}
	return rec, nil
}
