package serve

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The POST /api/ingest body, {"docs":[{"id":…,"text":…},…]}, is read
// into a pooled buffer (readIngestBody), copied once into one string,
// and decoded in one pass over that string straight into []Doc: a field
// whose JSON string holds only printable ASCII without escapes is cut
// out of the body string, so a document's strings keep its request's
// body alive; any other is decoded and copied on its own. When the cut
// fields are under half the body, they are copied too (decodeIngest), so
// a request's documents never keep more than twice their own bytes. It accepts
// exactly what encoding/json's Decoder.Decode into struct{Docs []Doc}
// accepts and yields the same documents, with two declared differences:
// a repeated "docs" key is refused, and a body over the size limit is
// refused whatever its first value (readIngestBody). Like Decode, it
// reads only the first value and ignores what follows it; matches keys
// exactly or under Unicode case folding ("DOCS" and "docſ" are docs);
// skips unknown keys as any valid value; treats null as a no-op; parses
// a value of the wrong type to its end before refusing it; and refuses
// nesting deeper than maxNestingDepth.

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

// bodyBufs holds the read buffers of ingest bodies between requests, as
// *[]byte. A buffer above maxPooledBuf is left to the collector, so one
// large request pins nothing once it is read.
var bodyBufs sync.Pool

// maxPooledBuf is the largest read buffer bodyBufs keeps: 1 MiB, several
// 32-document bulk requests of ~6 KB documents.
const maxPooledBuf = 1 << 20

// readIngestBody reads a whole request body into buf, a reused buffer
// (nil allocates a fresh one), and returns it extended. It is grown
// from the declared length, but never beyond limit+1 bytes (8 MiB+1
// with no limit), so a Content-Length header cannot make it allocate
// more than that ahead of the bytes. A body longer than limit fails
// with errTooLarge once limit+1 bytes are read; limit ≤ 0 means no
// limit. On error the returned buffer is still the caller's to reuse.
func readIngestBody(buf []byte, r io.Reader, declared, limit int64) ([]byte, error) {
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
	if want := min(size, ceiling+1); int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	buf = buf[:0]
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
			return buf, err
		}
	}
	if limit > 0 && int64(len(buf)) > limit {
		return buf, errTooLarge
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
	buf     string
	pos     int
	typeErr error
	scratch []byte // decoded bytes of a string that had escapes

	cut     int       // bytes of document fields cut out of buf
	cutMask []uint8   // per document, bit i set when field docFields[i] was cut
	maskBuf [32]uint8 // cutMask's first array: a 32-document body grows none
}

// decodeIngest decodes an ingest body into its documents, whose fields
// are substrings of body wherever their JSON strings need no decoding,
// as long as those fields make up at least half of body; otherwise each
// is copied. A body whose first value is null, or an object without
// "docs", yields none.
func decodeIngest(body string) ([]Doc, error) {
	d := &ingestDecoder{buf: body}
	d.cutMask = d.maskBuf[:0]
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
	// A field cut from the body keeps all of it alive: a small document
	// beside a large skipped value, or beside escaped texts that were
	// copied anyway, would pin far more than its own bytes.
	if 2*d.cut < len(body) {
		for i, mask := range d.cutMask {
			fields := docFieldsOf(&docs[i])
			for f, p := range fields {
				if mask&(1<<f) != 0 {
					*p = strings.Clone(*p)
				}
			}
		}
	}
	return docs, nil
}

// docFieldsOf returns pointers to doc's fields, in docFields' order.
func docFieldsOf(doc *Doc) [len(docFields)]*string {
	return [len(docFields)]*string{&doc.ID, &doc.Source, &doc.Title, &doc.Date, &doc.Text}
}

// request decodes the top-level object.
func (d *ingestDecoder) request() ([]Doc, error) {
	var docs []Doc
	seen := false
	err := d.object(1, func(key jsonStr) error {
		if !key.is("docs") {
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
				d.cutMask = append(d.cutMask, 0)
				return d.doc(3, &docs[len(docs)-1], &d.cutMask[len(d.cutMask)-1])
			case 'n':
				docs = append(docs, Doc{}) // null is a zero document
				d.cutMask = append(d.cutMask, 0)
				return d.literal("null")
			}
			return d.valueOfType(2, "object")
		})
	})
	return docs, err
}

// doc decodes one document object into doc, setting in cut the bit of
// each field it cuts out of the body.
func (d *ingestDecoder) doc(depth int, doc *Doc, cut *uint8) error {
	fields := docFieldsOf(doc)
	return d.object(depth, func(key jsonStr) error {
		for i, f := range docFields {
			if !key.is(f) {
				continue
			}
			if d.buf[d.pos] != '"' {
				return d.valueOfType(depth, "string")
			}
			v, err := d.str()
			if *cut&(1<<i) != 0 { // a repeated key replaces the value cut before
				d.cut -= len(*fields[i])
			}
			if v.esc {
				*fields[i] = string(v.b)
				*cut &^= 1 << i
			} else {
				*fields[i] = v.s
				*cut |= 1 << i
				d.cut += len(v.s)
			}
			return err
		}
		return d.skipValue(depth)
	})
}

// object decodes the object at d.pos, opened at the given depth,
// calling member with each decoded key and d.pos at its value.
func (d *ingestDecoder) object(depth int, member func(key jsonStr) error) error {
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
// value.
func (d *ingestDecoder) key() (jsonStr, error) {
	if d.pos == len(d.buf) || d.buf[d.pos] != '"' {
		return jsonStr{}, d.syntax("looking for beginning of object key string")
	}
	key, err := d.str()
	if err != nil {
		return jsonStr{}, err
	}
	if d.skipSpace() != ':' {
		return jsonStr{}, d.syntax("after object key")
	}
	d.pos++
	if d.skipSpace() == 0 && d.pos == len(d.buf) {
		return jsonStr{}, d.syntax("looking for beginning of value")
	}
	return key, nil
}

// jsonStr is a decoded JSON string: s, a substring of the body, when the
// string held only printable ASCII without escapes; else (esc) b, its
// decoded bytes in the decoder's scratch, valid until the next string.
type jsonStr struct {
	s   string
	b   []byte
	esc bool
}

// is reports whether the string matches name as encoding/json matches a
// key to a field name: exactly or under Unicode case folding.
func (k jsonStr) is(name string) bool {
	if k.esc {
		return strings.EqualFold(string(k.b), name) // converted on the stack
	}
	return strings.EqualFold(k.s, name)
}

// str reads the string at d.pos. Only a field value that keeps a string
// of its own copies it (doc); keys and skipped values allocate nothing.
func (d *ingestDecoder) str() (jsonStr, error) {
	start := d.pos + 1
	if q := strings.IndexByte(d.buf[start:], '"'); q >= 0 && cleanRun(d.buf[start:start+q]) {
		d.pos = start + q + 1
		return jsonStr{s: d.buf[start : start+q]}, nil
	}
	b, err := d.slowString(start)
	return jsonStr{b: b, esc: true}, err
}

// cleanRun reports whether s holds only printable ASCII other than the
// backslash, eight bytes at a time: a word is clean when no byte has its
// top bit set, lies below 0x20 (subtracting 0x20 borrows into its top
// bit) or is a backslash (the XOR makes it zero, and subtracting one
// borrows into its top bit).
func cleanRun(s string) bool {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := load64(s[i:])
		x := w ^ ('\\' * loBytes)
		if (w|(w-0x20*loBytes)|(x-loBytes)&^x)&hiBits != 0 {
			return false
		}
	}
	for ; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// load64 reads the first eight bytes of s as a little-endian word.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
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
			r, size := utf8.DecodeRuneInString(d.buf[i:])
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
func hex4(b string) rune {
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
		return d.object(depth+1, func(jsonStr) error { return d.skipValue(depth + 1) })
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
	if !strings.HasPrefix(d.buf[d.pos:], lit) {
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
