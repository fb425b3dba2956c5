package vinci

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDispatchRecoversPanic: a panicking handler becomes an error
// response, not a crash.
func TestDispatchRecoversPanic(t *testing.T) {
	reg := NewRegistry()
	reg.Register("boom", func(Request) Response { panic("handler bug") })
	resp := reg.Dispatch(Request{Service: "boom", Op: "x"})
	if resp.OK || !strings.Contains(resp.Error, "panicked") || !strings.Contains(resp.Error, "handler bug") {
		t.Errorf("resp = %+v", resp)
	}
}

// TestServerSurvivesPanickingHandler: over TCP, the panic comes back as
// an error response and the same connection keeps working.
func TestServerSurvivesPanickingHandler(t *testing.T) {
	reg := echoRegistry()
	var calls atomic.Int32
	reg.Register("boom", func(Request) Response {
		if calls.Add(1) == 1 {
			panic("first call explodes")
		}
		return OKResponse(nil)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call(Request{Service: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "panicked") {
		t.Errorf("panic response = %+v", resp)
	}
	// The connection survived the panic: both the panicking service and
	// others still answer.
	resp2, err := c.Call(Request{Service: "echo", Op: "after"})
	if err != nil || !resp2.OK {
		t.Errorf("call after panic: %+v, %v", resp2, err)
	}
}

// TestClientReconnectsAfterPartialFrame is the transport-desync
// regression test: a server that answers with a truncated frame and
// stalls must not poison the client. The deadline fires mid-frame and
// the first call fails; the client tears the connection down, so the
// next call succeeds on a fresh connection — observable as a second
// accept.
func TestClientReconnectsAfterPartialFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int32
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := accepts.Add(1)
			go func(conn net.Conn, n int32) {
				defer conn.Close()
				for {
					payload, err := readFrame(conn)
					if err != nil {
						return
					}
					if n == 1 {
						// Promise a 64-byte response, deliver 8, stall:
						// the client's deadline fires mid-frame.
						var hdr [4]byte
						binary.BigEndian.PutUint32(hdr[:], 64)
						conn.Write(hdr[:])
						conn.Write([]byte("partial!"))
						<-hold
						return
					}
					req, err := decodeRequest(payload)
					if err != nil {
						return
					}
					out, _ := encodeResponse(OKResponse(map[string]string{"op": req.Op}))
					writeFrame(conn, out)
				}
			}(conn, n)
		}
	}()

	const budget = 150 * time.Millisecond
	c, err := Dial(ln.Addr().String(), budget)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Call(Request{Service: "echo", Op: "stalled"})
	if !IsDeadlineExceeded(err) {
		t.Fatalf("call through partial-frame server: err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < budget || elapsed > budget+time.Second {
		t.Errorf("first call returned after %v, want at its %v deadline", elapsed, budget)
	}
	resp, err := c.Call(Request{Service: "echo", Op: "hello"})
	if err != nil {
		t.Fatalf("call after the torn connection: %v", err)
	}
	if !resp.OK || resp.Fields["op"] != "hello" {
		t.Errorf("resp = %+v", resp)
	}
	if got := accepts.Load(); got != 2 {
		t.Errorf("accepts = %d, want 2 (teardown must force a fresh connection)", got)
	}
}

// TestClientRetriesFailedDial: a client whose connection broke redials
// on the next call. A failed redial is that call's error, wrapping the
// dial error — the call is not retried; the call after it redials again
// and succeeds.
func TestClientRetriesFailedDial(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	errDial := errors.New("injected dial failure")
	var dials atomic.Int32
	c, err := DialWith(addr, DialOptions{
		CallTimeout: time.Second,
		Dialer: func(a string) (net.Conn, error) {
			// The eager dial connects, the first redial fails, the
			// second connects.
			if dials.Add(1) == 2 {
				return nil, errDial
			}
			return net.DialTimeout("tcp", a, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Break the live connection under the client; the client notices on
	// the next call's exchange and tears it down.
	c.(*tcpClient).mu.Lock()
	c.(*tcpClient).conn.Close()
	c.(*tcpClient).mu.Unlock()
	if _, err := c.Call(Request{Service: "echo", Op: "broken"}); err == nil {
		t.Fatal("call on a closed connection succeeded")
	}
	if _, err := c.Call(Request{Service: "echo", Op: "redial"}); !errors.Is(err, errDial) {
		t.Fatalf("call whose redial fails: err = %v, want the dial error", err)
	}
	resp, err := c.Call(Request{Service: "echo", Op: "back"})
	if err != nil || !resp.OK || resp.Fields["op"] != "back" {
		t.Fatalf("call after a failed redial: %+v, %v", resp, err)
	}
	if d := dials.Load(); d != 3 {
		t.Errorf("dials = %d, want 3 (eager + failed redial + good redial)", d)
	}
}

// TestCallReportsExhaustedRetries: against a dialer that always fails,
// DialWith fails on its eager dial, and a client that lost its
// connection spends exactly one dial per call — the one attempt a call
// has — and reports that dial's error.
func TestCallReportsExhaustedRetries(t *testing.T) {
	errDial := errors.New("injected dial failure")
	var dials atomic.Int32
	opts := DialOptions{
		Dialer: func(string) (net.Conn, error) {
			dials.Add(1)
			return nil, errDial
		},
	}
	if _, err := DialWith("127.0.0.1:1", opts); !errors.Is(err, errDial) {
		t.Errorf("eager dial through failing dialer: err = %v", err)
	}

	// Lazy path: a client without a live connection redials inside Call.
	c := &tcpClient{addr: "127.0.0.1:1", opts: opts}
	for i := 1; i <= 2; i++ {
		before := dials.Load()
		_, err := c.Call(Request{Service: "echo", Op: "x"})
		if !errors.Is(err, errDial) || !strings.Contains(err.Error(), "dial 127.0.0.1:1") {
			t.Errorf("call %d: err = %v, want the dial error", i, err)
		}
		if got := dials.Load() - before; got != 1 {
			t.Errorf("call %d dialed %d times, want 1 (a call is never retried)", i, got)
		}
	}
}

// TestServerCloseDrainsInFlight: Close must wait for a response already
// being computed to be written before returning.
func TestServerCloseDrainsInFlight(t *testing.T) {
	reg := NewRegistry()
	started := make(chan struct{})
	reg.Register("slow", func(Request) Response {
		close(started)
		time.Sleep(120 * time.Millisecond)
		return OKResponse(map[string]string{"done": "1"})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()

	c, err := DialWith(ln.Addr().String(), DialOptions{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		resp Response
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := c.Call(Request{Service: "slow"})
		got <- result{resp, err}
	}()

	// Close while the handler is still sleeping: the server must finish
	// the exchange (drain) rather than cut the connection.
	<-started
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		srv.Close()
	}()

	r := <-got
	if r.err != nil || !r.resp.OK || r.resp.Fields["done"] != "1" {
		t.Fatalf("in-flight call during Close: %+v, %v", r.resp, r.err)
	}
	<-closed
	<-serveDone
}
