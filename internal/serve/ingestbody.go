package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The POST /api/ingest body, {"docs":[{"id":…,"text":…},…]}, is decoded
// in one pass over one buffer straight into []Doc. It accepts exactly
// what encoding/json's Decoder.Decode into struct{Docs []Doc} accepts and
// yields the same documents, with two declared differences: a repeated
// "docs" key is refused, and a body over the size limit is refused
// whatever its first value (readIngestBody). Like Decode, it reads only
// the first value and ignores what follows it; matches keys exactly or
// under Unicode case folding ("DOCS" and "docſ" are docs); skips unknown
// keys as any valid value; treats null as a no-op; parses a value of the
// wrong type to its end before refusing it; and refuses nesting deeper
// than maxNestingDepth.

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// Word masks for testing eight bytes at once: a byte's top bit, and one
// in every byte.
const (
	hiBits  = 0x8080808080808080
	loBytes = 0x0101010101010101
)

// docFields are Doc's JSON keys, in the order doc lists its fields.
var docFields = [...]string{"id", "source", "title", "date", "text"}

// errTooLarge is returned by readIngestBody for a body over its limit.
var errTooLarge = errors.New("request body too large")

// readIngestBody reads a whole request body into one buffer. The buffer
// is sized from the declared length, but never beyond limit+1 bytes (8
// MiB+1 with no limit), so a Content-Length header cannot make it
// allocate more than that ahead of the bytes. A body longer than limit
// fails with errTooLarge once limit+1 bytes are read; limit ≤ 0 means no
// limit.
func readIngestBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = declared + 1 // room for the read that sees EOF
	}
	ceiling := limit
	if ceiling <= 0 {
		ceiling = defaultMaxIngestBytes
	}
	if limit > 0 {
		r = io.LimitReader(r, limit+1)
	}
	buf := make([]byte, 0, min(size, ceiling+1))
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if limit > 0 && int64(len(buf)) > limit {
		return nil, errTooLarge
	}
	return buf, nil
}

// bodyError is a malformed ingest body: a syntax error, or a value of
// the wrong type. off is the byte offset it was found at.
type bodyError struct {
	off int
	msg string
}

func (e *bodyError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

// ingestDecoder walks one body. The first wrong-typed value is kept in
// typeErr while decoding goes on, as encoding/json does, so that a body
// with a syntax error after it is still refused for the syntax error.
type ingestDecoder struct {
	buf     []byte
	pos     int
	typeErr error
	scratch []byte // decoded bytes of a string that had escapes
}

// decodeIngest decodes an ingest body into its documents. A body whose
// first value is null, or an object without "docs", yields none.
func decodeIngest(body []byte) ([]Doc, error) {
	d := &ingestDecoder{buf: body}
	d.skipSpace()
	if d.pos == len(d.buf) {
		return nil, &bodyError{d.pos, "empty body"}
	}
	var docs []Doc
	var err error
	if d.buf[d.pos] == '{' {
		docs, err = d.request()
	} else {
		err = d.valueOfType(0, "object")
	}
	if err == nil {
		err = d.typeErr
	}
	if err != nil {
		return nil, err
	}
	return docs, nil
}

// request decodes the top-level object.
func (d *ingestDecoder) request() ([]Doc, error) {
	var docs []Doc
	seen := false
	err := d.object(1, func(key []byte) error {
		if !strings.EqualFold(string(key), "docs") {
			return d.skipValue(1)
		}
		if seen {
			return &bodyError{d.pos, `repeated "docs" key`}
		}
		seen = true
		if d.buf[d.pos] != '[' {
			return d.valueOfType(1, "array")
		}
		docs = []Doc{} // "docs":[] decodes to an empty, not a nil, slice
		return d.array(2, func() error {
			switch d.buf[d.pos] {
			case '{':
				docs = append(docs, Doc{})
				return d.doc(3, &docs[len(docs)-1])
			case 'n':
				docs = append(docs, Doc{}) // null is a zero document
				return d.literal("null")
			}
			return d.valueOfType(2, "object")
		})
	})
	return docs, err
}

// doc decodes one document object into doc.
func (d *ingestDecoder) doc(depth int, doc *Doc) error {
	fields := [len(docFields)]*string{&doc.ID, &doc.Source, &doc.Title, &doc.Date, &doc.Text}
	return d.object(depth, func(key []byte) error {
		for i, f := range docFields {
			if !strings.EqualFold(string(key), f) {
				continue
			}
			if d.buf[d.pos] != '"' {
				return d.valueOfType(depth, "string")
			}
			b, err := d.str()
			*fields[i] = string(b)
			return err
		}
		return d.skipValue(depth)
	})
}

// object decodes the object at d.pos, opened at the given depth,
// calling member with each decoded key and d.pos at its value.
func (d *ingestDecoder) object(depth int, member func(key []byte) error) error {
	if depth > maxNestingDepth {
		return &bodyError{d.pos, "exceeded max depth"}
	}
	d.pos++ // '{'
	if d.skipSpace() == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch d.skipSpace() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array decodes the array at d.pos, opened at the given depth, calling
// elem with d.pos at each element.
func (d *ingestDecoder) array(depth int, elem func() error) error {
	if depth > maxNestingDepth {
		return &bodyError{d.pos, "exceeded max depth"}
	}
	d.pos++ // '['
	if d.skipSpace() == ']' {
		d.pos++
		return nil
	}
	for {
		if d.pos == len(d.buf) {
			return d.syntax("looking for beginning of value")
		}
		if err := elem(); err != nil {
			return err
		}
		switch d.skipSpace() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// key reads an object key and the colon after it, leaving d.pos at the
// value. A key made only of printable ASCII is returned as a slice of
// the body; any other is decoded into scratch.
func (d *ingestDecoder) key() ([]byte, error) {
	if d.pos == len(d.buf) || d.buf[d.pos] != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.skipSpace() != ':' {
		return nil, d.syntax("after object key")
	}
	d.pos++
	if d.skipSpace() == 0 && d.pos == len(d.buf) {
		return nil, d.syntax("looking for beginning of value")
	}
	return key, nil
}

// str reads the string at d.pos and returns its decoded bytes: a slice
// of the body when the string holds only printable ASCII without
// escapes, else scratch, valid until the next call.
func (d *ingestDecoder) str() ([]byte, error) {
	start := d.pos + 1
	if q := bytes.IndexByte(d.buf[start:], '"'); q >= 0 && cleanRun(d.buf[start:start+q]) {
		d.pos = start + q + 1
		return d.buf[start : start+q], nil
	}
	return d.slowString(start)
}

// cleanRun reports whether b holds only printable ASCII other than the
// backslash, eight bytes at a time: a word is clean when no byte has its
// top bit set, lies below 0x20 (subtracting 0x20 borrows into its top
// bit) or is a backslash (the XOR makes it zero, and subtracting one
// borrows into its top bit).
func cleanRun(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		x := w ^ ('\\' * loBytes)
		if (w|(w-0x20*loBytes)|(x-loBytes)&^x)&hiBits != 0 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// slowString decodes the string whose contents start at start into
// scratch, exactly as encoding/json unquotes: escapes, \uXXXX with
// surrogate pairs (a lone surrogate becomes U+FFFD), and each byte of
// invalid UTF-8 becomes U+FFFD.
func (d *ingestDecoder) slowString(start int) ([]byte, error) {
	out := d.scratch[:0]
	i := start
	for {
		j := i
		for j < len(d.buf) {
			if c := d.buf[j]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
				break
			}
			j++
		}
		out = append(out, d.buf[i:j]...)
		i = j
		if i == len(d.buf) {
			d.pos = i
			return nil, d.syntax("in string literal")
		}
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			d.scratch = out
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.syntax("in string literal")
		case c >= 0x80:
			r, size := utf8.DecodeRune(d.buf[i:])
			out = utf8.AppendRune(out, r)
			i += size
		default: // '\\'
			if i+1 == len(d.buf) {
				d.pos = i + 1
				return nil, d.syntax("in string escape code")
			}
			switch e := d.buf[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.buf[i+2:])
				if r < 0 {
					d.pos = i + 2
					return nil, d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(d.buf) && d.buf[i] == '\\' && d.buf[i+1] == 'u' {
						r2 = hex4(d.buf[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntax("in string escape code")
			}
			i += 2
		}
	}
}

// hex4 decodes four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// valueOfType skips a value that is not of the wanted type. A null is
// a no-op; anything else is a type error, kept once the value has
// parsed.
func (d *ingestDecoder) valueOfType(depth int, want string) error {
	off := d.pos
	isNull := d.buf[d.pos] == 'n'
	if err := d.skipValue(depth); err != nil {
		return err
	}
	if !isNull && d.typeErr == nil {
		d.typeErr = &bodyError{off, "expected " + want}
	}
	return nil
}

// skipValue steps over one value of any kind at d.pos inside depth open
// containers.
func (d *ingestDecoder) skipValue(depth int) error {
	switch d.buf[d.pos] {
	case '{':
		return d.object(depth+1, func([]byte) error { return d.skipValue(depth + 1) })
	case '[':
		return d.array(depth+1, func() error { return d.skipValue(depth + 1) })
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.number()
}

// literal steps over true, false or null.
func (d *ingestDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.buf[d.pos:], []byte(lit)) {
		return d.syntax("in literal " + lit)
	}
	d.pos += len(lit)
	return nil
}

// number steps over a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *ingestDecoder) number() error {
	b, i := d.buf, d.pos
	digits := func() bool {
		s := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > s
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.pos = i
		return d.syntax("looking for beginning of value")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return d.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return d.syntax("in exponent of numeric literal")
		}
	}
	d.pos = i
	return nil
}

// skipSpace steps over JSON whitespace and returns the byte it stops
// at, or 0 at the end of the body.
func (d *ingestDecoder) skipSpace() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// syntax reports a syntax error at d.pos.
func (d *ingestDecoder) syntax(context string) error {
	if d.pos >= len(d.buf) {
		return &bodyError{d.pos, "unexpected end of body"}
	}
	return &bodyError{d.pos, fmt.Sprintf("invalid character %q %s", d.buf[d.pos], context)}
}
