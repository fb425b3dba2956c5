package vinci

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("echo", func(req Request) Response {
		fields := map[string]string{"op": req.Op}
		for k, v := range req.Params {
			fields[k] = v
		}
		return OKResponse(fields)
	})
	reg.Register("fail", func(req Request) Response {
		return Errorf("deliberate failure: %s", req.Op)
	})
	return reg
}

func TestLocalClientRoundTrip(t *testing.T) {
	c := NewLocalClient(echoRegistry())
	defer c.Close()
	resp, err := c.Call(Request{Service: "echo", Op: "ping", Params: map[string]string{"a": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Fields["a"] != "1" || resp.Fields["op"] != "ping" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestLocalClientUnknownService(t *testing.T) {
	c := NewLocalClient(echoRegistry())
	resp, err := c.Call(Request{Service: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown service") {
		t.Errorf("resp = %+v", resp)
	}
}

func TestErrorResponse(t *testing.T) {
	c := NewLocalClient(echoRegistry())
	resp, _ := c.Call(Request{Service: "fail", Op: "x"})
	if resp.OK || !strings.Contains(resp.Error, "deliberate failure: x") {
		t.Errorf("resp = %+v", resp)
	}
}

func TestWireEncodingRoundTrip(t *testing.T) {
	req := Request{Service: "store", Op: "put", Params: map[string]string{
		"id":   "doc1",
		"text": "The <NR70> takes \"excellent\" pictures & more.",
	}}
	data, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("round trip: %+v vs %+v", req, back)
	}

	resp := Response{OK: true, Fields: map[string]string{"n": "42", "xml": "<a>&b</a>"}}
	rdata, err := encodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	rback, err := decodeResponse(rdata)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, rback) {
		t.Errorf("round trip: %+v vs %+v", resp, rback)
	}
}

func startServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	return startServerWith(t, echoRegistry())
}

func TestTCPRoundTrip(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call(Request{Service: "echo", Op: "hello", Params: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Fields["k"] != "v" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestTCPSequentialCallsOneConnection(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		resp, err := c.Call(Request{Service: "echo", Op: fmt.Sprintf("op%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Fields["op"] != fmt.Sprintf("op%d", i) {
			t.Errorf("call %d: %+v", i, resp)
		}
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				resp, err := c.Call(Request{Service: "echo", Op: "x", Params: map[string]string{"w": fmt.Sprint(w)}})
				if err != nil {
					errs <- err
					return
				}
				if resp.Fields["w"] != fmt.Sprint(w) {
					errs <- fmt.Errorf("cross-talk: %+v", resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientClosedCallFails(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(Request{Service: "echo"}); err == nil {
		t.Error("call on closed client should fail")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", time.Second); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestRegistryServices(t *testing.T) {
	reg := echoRegistry()
	got := reg.Services()
	if !reflect.DeepEqual(got, []string{"echo", "fail"}) {
		t.Errorf("Services = %v", got)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var sink strings.Builder
	big := make([]byte, MaxFrameSize+1)
	if err := writeFrame(&sink, big); err == nil {
		t.Error("oversized frame should fail")
	}
}

// TestServerSurvivesMalformedFrames: a peer sending garbage must not take
// the server down; other connections keep working.
func TestServerSurvivesMalformedFrames(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	// Raw connection sending a valid frame header with junk XML.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("this is not xml at all <<<")
	var hdr [4]byte
	hdr[0] = byte(len(payload) >> 24)
	hdr[1] = byte(len(payload) >> 16)
	hdr[2] = byte(len(payload) >> 8)
	hdr[3] = byte(len(payload))
	raw.Write(hdr[:])
	raw.Write(payload)
	// The server responds with a structured error frame.
	resp, err := readFrame(raw)
	if err != nil {
		t.Fatalf("no error response: %v", err)
	}
	decoded, err := decodeResponse(resp)
	if err != nil || decoded.OK || !strings.Contains(decoded.Error, "malformed") {
		t.Errorf("resp = %+v, %v", decoded, err)
	}
	raw.Close()

	// An oversized frame header drops the connection without panicking.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	raw2.Close()

	// A healthy client still works.
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp2, err := c.Call(Request{Service: "echo", Op: "still-alive"})
	if err != nil || !resp2.OK {
		t.Errorf("healthy call after garbage: %+v, %v", resp2, err)
	}
}

// TestReadFrameRejectsOversized verifies the frame size guard.
func TestReadFrameRejectsOversized(t *testing.T) {
	var buf strings.Builder
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(strings.NewReader(buf.String())); err == nil {
		t.Error("oversized frame accepted")
	}
}
