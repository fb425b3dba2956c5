package vinci

import (
	"errors"
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
		if req.Expired() {
			return Errorf("not expired yet")
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

// TestDispatchHonorsArrivalDeadline: a deadline stamped at arrival
// (Server.dispatch does this before admission queueing) survives
// Dispatch unchanged — the wire budget must not be granted back after a
// queue wait.
func TestDispatchHonorsArrivalDeadline(t *testing.T) {
	reg := NewRegistry()
	var got time.Time
	reg.Register("scan", func(req Request) Response {
		got, _ = req.Deadline()
		return OKResponse(nil)
	})
	stamped := time.Now().Add(80 * time.Millisecond)
	req := Request{Service: "scan", Op: "x",
		Params: map[string]string{DeadlineParam: "60000"}}.withAbsoluteDeadline(stamped)
	if resp := reg.Dispatch(req); !resp.OK {
		t.Fatalf("dispatch failed: %+v", resp)
	}
	if !got.Equal(stamped) {
		t.Errorf("handler saw deadline %v, want the arrival stamp %v (wire budget re-granted)", got, stamped)
	}
	// An arrival deadline already in the past is rejected before the
	// handler runs, even though the wire budget still reads generous.
	var ran atomic.Int32
	reg.Register("late", func(req Request) Response {
		ran.Add(1)
		return OKResponse(nil)
	})
	late := Request{Service: "late", Op: "x",
		Params: map[string]string{DeadlineParam: "60000"}}.withAbsoluteDeadline(time.Now().Add(-time.Millisecond))
	if resp := reg.Dispatch(late); resp.OK || resp.Code != CodeDeadlineExceeded {
		t.Errorf("resp = %+v, want CodeDeadlineExceeded", resp)
	}
	if ran.Load() != 0 {
		t.Error("handler ran for a request whose arrival deadline had passed")
	}
}

// TestQueueWaitDeductsBudget: time spent waiting in the admission queue
// comes out of the handler's budget — the deadline is fixed at arrival,
// not recomputed from the wire value at dispatch.
func TestQueueWaitDeductsBudget(t *testing.T) {
	reg := NewRegistry()
	occupying := make(chan struct{})
	release := make(chan struct{})
	var rem time.Duration
	reg.Register("svc", func(req Request) Response {
		if req.Param("who") == "occupier" {
			close(occupying)
			<-release
			return OKResponse(nil)
		}
		rem, _ = req.Remaining()
		return OKResponse(nil)
	})
	s := NewServerWith(reg, ServerOptions{Admission: AdmissionConfig{Capacity: 1, Depth: 4}})
	occDone := make(chan struct{})
	go func() {
		defer close(occDone)
		s.dispatch(Request{Service: "svc", Op: "x", Params: map[string]string{"who": "occupier"}})
	}()
	<-occupying
	queuedDone := make(chan Response, 1)
	go func() {
		queuedDone <- s.dispatch(Request{Service: "svc", Op: "x",
			Params: map[string]string{DeadlineParam: "60000"}})
	}()
	waitQueueDepth(t, s.adm, 1)
	time.Sleep(100 * time.Millisecond) // measurable queue wait
	close(release)
	if resp := <-queuedDone; !resp.OK {
		t.Fatalf("queued request failed: %+v", resp)
	}
	<-occDone
	if rem > 60*time.Second-80*time.Millisecond {
		t.Errorf("handler saw %v remaining of a 60s budget after ~100ms in queue — queue wait not deducted", rem)
	}
}

// TestUnboundedCallClearsInheritedDeadline: a budget-less call on a kept
// connection must not inherit the conn deadline a prior budget-carrying
// call set (with CallTimeout=0 and a single-attempt policy the stale,
// by-then-past deadline would fail the call outright).
func TestUnboundedCallClearsInheritedDeadline(t *testing.T) {
	reg := NewRegistry()
	reg.Register("echo", func(req Request) Response { return OKResponse(nil) })
	addr, shutdown := startServerWith(t, reg)
	defer shutdown()
	c, err := DialWith(addr, DialOptions{}) // no CallTimeout, single attempt
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

// TestRetriesStopAtTotalDeadline is the regression test for the PR-4-era
// bug where each retry reset the connection deadline, letting a call
// with CallTimeout=T and N attempts run for nearly N*T plus backoffs.
// With a dialer that always fails and far more backoff budget than call
// budget, the call must return once the total budget is spent — not
// after all attempts.
func TestRetriesStopAtTotalDeadline(t *testing.T) {
	var dials atomic.Int32
	c, err := DialWith("unused:0", DialOptions{
		CallTimeout: 120 * time.Millisecond,
		Retry: RetryPolicy{
			MaxAttempts: 50,
			BaseBackoff: 30 * time.Millisecond,
			MaxBackoff:  30 * time.Millisecond,
			Seed:        1,
		},
		Dialer: func(addr string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				// First (eager) dial succeeds so DialWith returns a client;
				// it is torn down by the failing exchange below.
				a, b := net.Pipe()
				go func() {
					var buf [1]byte
					b.Read(buf[:])
					b.Close()
				}()
				return a, nil
			}
			return nil, errors.New("injected dial failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Call(Request{Service: "echo", Op: "x"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !IsDeadlineExceeded(err) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	// 50 attempts x 30ms backoff would be 1.5s; the budget is 120ms.
	if elapsed > 600*time.Millisecond {
		t.Errorf("call ran %v after its 120ms budget — retries are not honoring the total deadline", elapsed)
	}
	if d := dials.Load(); d >= 50 {
		t.Errorf("dials = %d, want far fewer than MaxAttempts", d)
	}
}

// TestShedVsExpiredRetryClassification: CodeOverloaded responses are
// retried (the next attempt may find capacity), CodeDeadlineExceeded
// responses are terminal.
func TestShedVsExpiredRetryClassification(t *testing.T) {
	reg := NewRegistry()
	var calls atomic.Int32
	reg.Register("flaky", func(req Request) Response {
		if calls.Add(1) <= 2 {
			return OverloadedResponse("busy")
		}
		return OKResponse(map[string]string{"n": "3"})
	})
	addr, shutdown := startServerWith(t, reg)
	defer shutdown()

	c, err := DialWith(addr, DialOptions{
		CallTimeout: 2 * time.Second,
		Retry:       RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(Request{Service: "flaky", Op: "x"})
	if err != nil || !resp.OK {
		t.Fatalf("shed responses should be retried to success: resp=%+v err=%v", resp, err)
	}
	if calls.Load() != 3 {
		t.Errorf("server calls = %d, want 3 (two sheds + one success)", calls.Load())
	}

	// Expired is terminal: exactly one server round trip.
	var expCalls atomic.Int32
	reg.Register("expired", func(req Request) Response {
		expCalls.Add(1)
		return DeadlineExceededResponse("simulated")
	})
	_, err = c.Call(Request{Service: "expired", Op: "x"})
	if !IsDeadlineExceeded(err) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if expCalls.Load() != 1 {
		t.Errorf("server calls = %d, want 1 (expired must never retry)", expCalls.Load())
	}
}

// TestClientStampsRemainingBudget: a bounded call carries x-deadline-ms
// and the server-side handler sees a live absolute deadline.
func TestClientStampsRemainingBudget(t *testing.T) {
	reg := NewRegistry()
	var sawBudget atomic.Int64
	reg.Register("probe", func(req Request) Response {
		if rem, ok := req.Remaining(); ok {
			sawBudget.Store(int64(rem))
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
	return startServerOpts(t, reg, ServerOptions{})
}

func startServerOpts(t *testing.T, reg *Registry, opts ServerOptions) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(reg, opts)
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
