package vinci

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"webfountain/internal/deadline"
)

// frame builds a well-formed length-prefixed frame for seeding.
func frame(payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// FuzzDecodeRequest: malformed XML must produce an error, never a panic,
// and valid inputs must re-encode cleanly.
func FuzzDecodeRequest(f *testing.F) {
	good, _ := encodeRequest(Request{Service: "store", Op: "get", Params: map[string]string{"id": "doc1"}})
	f.Add(good)
	f.Add([]byte(""))
	f.Add([]byte("this is not xml at all <<<"))
	f.Add([]byte("<request"))
	f.Add([]byte(`<request service="s" op="o"><param name="a">v</param>`))
	f.Add([]byte(`<request service="s" op="o"><param name="a">v</param></request><junk/>`))
	f.Add([]byte("<request>" + strings.Repeat("<param>", 100)))
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		if _, err := encodeRequest(req); err != nil {
			t.Errorf("decoded request does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the response codec.
func FuzzDecodeResponse(f *testing.F) {
	good, _ := encodeResponse(OKResponse(map[string]string{"n": "42"}))
	f.Add(good)
	bad, _ := encodeResponse(Errorf("boom"))
	f.Add(bad)
	f.Add([]byte(""))
	f.Add([]byte("<response ok=\"maybe\">"))
	f.Add([]byte("<response ok=\"true\"><field name=\"x\">&#xZZ;</field></response>"))
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeResponse(data)
		if err != nil {
			return
		}
		if _, err := encodeResponse(resp); err != nil {
			t.Errorf("decoded response does not re-encode: %v", err)
		}
	})
}

// FuzzDeadlineParam: x-deadline-ms values off the wire must parse
// without panicking and never yield a negative budget; anything the
// parser accepts must round-trip through a stamped request and survive
// Dispatch (which either rejects it as expired or hands the handler a
// consistent absolute deadline).
func FuzzDeadlineParam(f *testing.F) {
	f.Add("")
	f.Add("0")
	f.Add("1")
	f.Add("250")
	f.Add("+250")
	f.Add("-1")
	f.Add("00000000000000000042")
	f.Add("99999999999999999999999999")
	f.Add("1073741824") // just past deadline.MaxMS
	f.Add("9223372036854775807")
	f.Add("1e3")
	f.Add("0x10")
	f.Add(" 7")
	f.Add("7 ")
	f.Add("١٢٣") // non-ASCII digits must be rejected
	f.Add("\x00")
	f.Fuzz(func(t *testing.T, s string) {
		budget, ok := parseBudget(s)
		if budget < 0 {
			t.Fatalf("parse %q yielded negative budget %v", s, budget)
		}
		if !ok && budget != 0 {
			t.Fatalf("parse %q rejected input but returned %v", s, budget)
		}

		reg := NewRegistry()
		reg.Register("probe", func(req Request) Response {
			if dl, has := req.Deadline(); has && time.Until(dl) > time.Duration(deadline.MaxMS)*time.Millisecond {
				return Errorf("deadline beyond clamp")
			}
			return OKResponse(nil)
		})
		req := Request{Service: "probe", Op: "x", Params: map[string]string{DeadlineParam: s}}
		resp := reg.Dispatch(req)
		switch {
		case resp.OK:
		case resp.Code == CodeDeadlineExceeded:
			if !ok || budget > 0 {
				t.Fatalf("dispatch expired %q but parse gave (%v, %v)", s, budget, ok)
			}
		default:
			t.Fatalf("dispatch of %q failed unexpectedly: %+v", s, resp)
		}

		if ok {
			// A stamped request must round-trip to the same budget.
			stamped := WithDeadlineBudget(Request{Service: "probe", Op: "x"}, budget)
			got, has := stamped.DeadlineBudget()
			if !has || got != budget {
				t.Fatalf("round trip of %v gave (%v, %v)", budget, got, has)
			}
		}
	})
}

// FuzzReadFrame: truncated, oversized and garbage frames must error
// without panicking or over-allocating, and well-formed frames must
// round-trip their payload.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame([]byte("<request/>")))
	f.Add(frame(nil))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, 'x'})               // truncated payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                    // oversized header
	f.Add([]byte{0x01, 0x00, 0x00, 0x01})                    // 16MiB+1: just past limit
	f.Add(append(frame([]byte("a")), frame([]byte("b"))...)) // two frames back to back
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := readFrame(r)
		if err != nil {
			return
		}
		if len(payload) > MaxFrameSize {
			t.Errorf("frame of %d bytes exceeds limit", len(payload))
		}
		if len(data) < 4+len(payload) {
			t.Errorf("read %d payload bytes from %d input bytes", len(payload), len(data))
		}
		if !bytes.Equal(payload, data[4:4+len(payload)]) {
			t.Error("payload does not match input")
		}
	})
}
