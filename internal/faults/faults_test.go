package faults

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"webfountain/internal/vinci"
)

func echoRegistry() *vinci.Registry {
	reg := vinci.NewRegistry()
	reg.Register("echo", func(req vinci.Request) vinci.Response {
		return vinci.OKResponse(map[string]string{"op": req.Op})
	})
	return reg
}

// TestInjectorDeterministicSequence: the same seed yields the same
// fault decisions, call by call, and therefore the same stats.
func TestInjectorDeterministicSequence(t *testing.T) {
	cfg := Config{Seed: 99, DropRate: 0.15, DelayRate: 0.1, Delay: time.Microsecond,
		TransientRate: 0.2, PermanentRate: 0.05}
	run := func() ([]string, Stats) {
		in := New(cfg)
		c := in.Client(vinci.NewLocalClient(echoRegistry()))
		var outcomes []string
		for i := 0; i < 200; i++ {
			_, err := c.Call(vinci.Request{Service: "echo", Op: "x"})
			switch {
			case err == nil:
				outcomes = append(outcomes, "ok")
			case err.(*Error).Transient:
				outcomes = append(outcomes, "transient")
			default:
				outcomes = append(outcomes, "permanent")
			}
		}
		return outcomes, in.Stats()
	}
	a, sa := run()
	b, sb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %s vs %s (same seed must replay the same faults)", i, a[i], b[i])
		}
	}
	if sa != sb {
		t.Errorf("stats diverged: %v vs %v", sa, sb)
	}
	if sa.Total() == 0 {
		t.Error("no faults injected at 50% combined rate over 200 calls")
	}
}

// TestSeedsDiverge: different seeds explore different fault sequences.
func TestSeedsDiverge(t *testing.T) {
	outcomes := func(seed int64) string {
		c := New(Config{Seed: seed, TransientRate: 0.5}).Client(vinci.NewLocalClient(echoRegistry()))
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if _, err := c.Call(vinci.Request{Service: "echo", Op: "x"}); err == nil {
				b.WriteByte('.')
			} else {
				b.WriteByte('x')
			}
		}
		return b.String()
	}
	if outcomes(1) == outcomes(2) {
		t.Error("seeds 1 and 2 produced identical 64-call fault sequences")
	}
}

// TestFaultyClientWrapper: injected call faults carry the right
// transience and pass-through calls reach the registry.
func TestFaultyClientWrapper(t *testing.T) {
	in := New(Config{Seed: 3, TransientRate: 1})
	c := in.Client(vinci.NewLocalClient(echoRegistry()))
	_, err := c.Call(vinci.Request{Service: "echo", Op: "x"})
	var fe *Error
	if err == nil {
		t.Fatal("TransientRate 1 must fail every call")
	}
	if ok := errorsAs(err, &fe); !ok || !fe.Transient {
		t.Errorf("err = %#v", err)
	}

	quiet := New(Config{Seed: 3})
	c2 := quiet.Client(vinci.NewLocalClient(echoRegistry()))
	resp, err := c2.Call(vinci.Request{Service: "echo", Op: "through"})
	if err != nil || !resp.OK || resp.Fields["op"] != "through" {
		t.Errorf("pass-through call: %+v, %v", resp, err)
	}
}

func errorsAs(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// startFaultyServer runs a plain vinci server; faults are injected on
// the client side of the link.
func startFaultyServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := vinci.NewServer(echoRegistry())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	return ln.Addr().String(), func() { srv.Close(); <-done }
}

// TestAcceptanceCorruptedFrames: with 15% of frames corrupted in
// transit, every call returns within its budget plus a grace window and
// gives either its own answer or an error — a corrupted frame is never
// an OK response with the wrong fields.
func TestAcceptanceCorruptedFrames(t *testing.T) {
	addr, shutdown := startFaultyServer(t)
	defer shutdown()

	in := New(Config{Seed: 11, CorruptRate: 0.15})
	// A corrupted length prefix can leave the server waiting for bytes
	// that never come; the call budget ends that call, and the next one
	// redials.
	const budget, grace = 100 * time.Millisecond, 300 * time.Millisecond
	c, err := vinci.DialWith(addr, vinci.DialOptions{
		CallTimeout: budget,
		Dialer:      in.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	successes := 0
	for i := 0; i < 40; i++ {
		op := fmt.Sprintf("op%d", i)
		start := time.Now()
		resp, err := c.Call(vinci.Request{Service: "echo", Op: op})
		if elapsed := time.Since(start); elapsed > budget+grace {
			t.Errorf("call %d took %v against a %v budget (err=%v)", i, elapsed, budget, err)
		}
		if err != nil {
			continue
		}
		if !resp.OK || resp.Fields["op"] != op {
			t.Fatalf("call %d answered %+v, want op %s", i, resp, op)
		}
		successes++
	}
	t.Logf("%d of 40 calls answered; injected %v", successes, in.Stats())
	if successes == 0 {
		t.Error("every call failed at a 15% corruption rate")
	}
	if in.Stats().Corruptions == 0 {
		t.Error("no corruption injected at 15% over 40+ frames")
	}
}
