package vinci

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// parseBudget reads s the way a server reads the parameter off the wire.
func parseBudget(s string) (time.Duration, bool) {
	return Request{Params: map[string]string{DeadlineParam: s}}.DeadlineBudget()
}

func TestParseDeadlineMS(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"1", time.Millisecond, true},
		{"0042", 42 * time.Millisecond, true},
		{"+250", 250 * time.Millisecond, true},
		{"-5", 0, false},
		{"5s", 0, false},
		{"1e3", 0, false},
		{"99999999999999999999999999", 0, false}, // overflow
		{"+", 0, false},
		{" 7", 0, false},
	}
	for _, c := range cases {
		got, ok := parseBudget(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("parse %q = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
		if got < 0 {
			t.Errorf("parse %q yielded negative budget %v", c.in, got)
		}
	}
}

func TestWithDeadlineBudgetRoundTrip(t *testing.T) {
	req := WithDeadlineBudget(Request{Service: "s", Op: "o"}, 1500*time.Millisecond)
	if got := req.Params[DeadlineParam]; got != "1500" {
		t.Errorf("param = %q, want 1500", got)
	}
	if b, ok := req.DeadlineBudget(); !ok || b != 1500*time.Millisecond {
		t.Errorf("DeadlineBudget = (%v, %v)", b, ok)
	}
	// Sub-millisecond budgets round up, never down to an expired "0".
	req = WithDeadlineBudget(Request{}, 300*time.Microsecond)
	if got := req.Params[DeadlineParam]; got != "1" {
		t.Errorf("sub-ms budget stamped %q, want 1", got)
	}
	req = WithDeadlineBudget(Request{}, -5*time.Millisecond)
	if got := req.Params[DeadlineParam]; got != "0" {
		t.Errorf("negative budget stamped %q, want 0", got)
	}

	// The caller's params map never gains the stamp: not from
	// WithDeadlineBudget, and not from a bounded call that stamps it on
	// the wire.
	params := map[string]string{"k": "v"}
	req = WithDeadlineBudget(Request{Service: "echo", Params: params}, time.Second)
	if req.Params[DeadlineParam] != "1000" {
		t.Errorf("stamped copy = %v", req.Params)
	}
	if _, ok := params[DeadlineParam]; ok || len(params) != 1 {
		t.Errorf("WithDeadlineBudget wrote into the caller's map: %v", params)
	}
	addr, shutdown := startServer(t)
	defer shutdown()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(Request{Service: "echo", Op: "x", Params: params})
	if err != nil || resp.Fields[DeadlineParam] == "" {
		t.Fatalf("bounded call: %+v, %v (want the stamp on the wire)", resp, err)
	}
	if _, ok := params[DeadlineParam]; ok || len(params) != 1 {
		t.Errorf("a bounded Call wrote into the caller's map: %v", params)
	}
}

// TestDispatchRejectsExpiredBudget: a request arriving with no budget
// left is rejected with CodeDeadlineExceeded before its handler runs.
func TestDispatchRejectsExpiredBudget(t *testing.T) {
	reg := NewRegistry()
	var handled atomic.Int32
	reg.Register("echo", func(req Request) Response {
		handled.Add(1)
		return OKResponse(nil)
	})
	resp := reg.Dispatch(Request{Service: "echo", Op: "x", Params: map[string]string{DeadlineParam: "0"}})
	if resp.OK || resp.Code != CodeDeadlineExceeded {
		t.Errorf("resp = %+v, want CodeDeadlineExceeded", resp)
	}
	if handled.Load() != 0 {
		t.Error("handler ran for an expired request")
	}
}

// TestDispatchExposesDeadlineToHandler: a live budget becomes an
// absolute deadline the handler can read and act on.
func TestDispatchExposesDeadlineToHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Register("scan", func(req Request) Response {
		dl, ok := req.Deadline()
		if !ok {
			return Errorf("no deadline visible")
		}
		rem := time.Until(dl)
		if rem <= 0 || rem > 200*time.Millisecond {
			return Errorf("remaining = %v", rem)
		}
		if time.Now().After(dl) {
			return Errorf("deadline %v already passed", dl)
		}
		return OKResponse(nil)
	})
	resp := reg.Dispatch(Request{Service: "scan", Op: "x", Params: map[string]string{DeadlineParam: "200"}})
	if !resp.OK {
		t.Errorf("handler saw bad deadline: %s", resp.Error)
	}
	// Without a budget, no deadline is visible.
	reg.Register("free", func(req Request) Response {
		if _, ok := req.Deadline(); ok {
			return Errorf("unexpected deadline")
		}
		return OKResponse(nil)
	})
	if resp := reg.Dispatch(Request{Service: "free", Op: "x"}); !resp.OK {
		t.Errorf("budget-less dispatch: %s", resp.Error)
	}
}

// TestUnboundedCallClearsInheritedDeadline: a budget-less call on a kept
// connection must not inherit the conn deadline a prior budget-carrying
// call set (with CallTimeout=0 the stale, by-then-past deadline would
// fail the call outright).
func TestUnboundedCallClearsInheritedDeadline(t *testing.T) {
	reg := NewRegistry()
	reg.Register("echo", func(req Request) Response { return OKResponse(nil) })
	addr, shutdown := startServerWith(t, reg)
	defer shutdown()
	c, err := DialWith(addr, DialOptions{}) // no CallTimeout
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The first call carries an upstream-stamped budget and sets a conn
	// deadline as part of honoring it.
	if _, err := c.Call(Request{Service: "echo", Op: "x",
		Params: map[string]string{DeadlineParam: "40"}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // let the stale deadline pass
	if _, err := c.Call(Request{Service: "echo", Op: "x"}); err != nil {
		t.Fatalf("budget-less call on kept connection failed: %v (inherited stale deadline)", err)
	}
}

// TestShedVsExpiredRetryClassification: a CodeDeadlineExceeded
// response takes exactly one round trip and reaches the caller as
// ErrDeadlineExceeded.
func TestShedVsExpiredRetryClassification(t *testing.T) {
	reg := NewRegistry()
	var expCalls atomic.Int32
	reg.Register("expired", func(req Request) Response {
		expCalls.Add(1)
		return DeadlineExceededResponse("simulated")
	})
	addr, shutdown := startServerWith(t, reg)
	defer shutdown()

	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(Request{Service: "expired", Op: "x"})
	if !IsDeadlineExceeded(err) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if expCalls.Load() != 1 {
		t.Errorf("server calls = %d, want 1", expCalls.Load())
	}
}

// TestClientStampsRemainingBudget: a bounded call carries x-deadline-ms
// and the server-side handler sees a live absolute deadline.
func TestClientStampsRemainingBudget(t *testing.T) {
	reg := NewRegistry()
	var sawBudget atomic.Int64
	reg.Register("probe", func(req Request) Response {
		if dl, ok := req.Deadline(); ok {
			sawBudget.Store(int64(time.Until(dl)))
		}
		return OKResponse(nil)
	})
	addr, shutdown := startServerWith(t, reg)
	defer shutdown()

	c, err := Dial(addr, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(Request{Service: "probe", Op: "x"}); err != nil {
		t.Fatal(err)
	}
	rem := time.Duration(sawBudget.Load())
	if rem <= 0 || rem > 500*time.Millisecond {
		t.Errorf("handler saw remaining budget %v, want (0, 500ms]", rem)
	}
}

// startServerWith serves a registry on a loopback listener.
func startServerWith(t *testing.T, reg *Registry) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}
}
