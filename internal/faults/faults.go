// Package faults is a deterministic, seedable fault injector for
// exercising the platform's failure paths. The paper's miner ran on a
// 500+ node cluster where link and disk failures were routine; this
// package makes those failure modes reproducible in tests by deriving
// all fault decisions from one seeded PRNG.
//
// An Injector wraps the two surfaces where such failures enter the
// system:
//
//   - the transport — a vinci.Client call fails with a transient or
//     permanent error or is delayed (Injector.Client), and a net.Conn
//     frame is dropped (connection killed), delayed or corrupted in
//     transit (Injector.Conn, Injector.Dialer);
//   - the disk — a durable.File write is torn or bit-flipped, or a sync
//     fails (Injector.File, disk.go).
//
// Miners are not wrapped: they are deterministic in-process functions,
// and the miner runtime reports a failed entity without retrying it.
//
// Decisions are drawn from a single mutex-guarded PRNG, so a sequential
// workload replays the exact fault sequence under a fixed seed; a
// concurrent workload replays the same fault *mix* (counts converge)
// with scheduling-dependent placement.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"webfountain/internal/vinci"
)

// Config selects fault rates; all rates are probabilities in [0, 1] and
// independent (checked in the order drop, delay, corrupt, transient,
// permanent).
type Config struct {
	// Seed fixes the fault sequence; the zero seed is used as-is so the
	// default config is still deterministic.
	Seed int64
	// DropRate kills the connection (conn faults) or fails the call
	// with a transient error (call faults) instead of delivering.
	DropRate float64
	// DelayRate stalls the operation for Delay before delivering.
	DelayRate float64
	// Delay is the injected stall (default 5ms when DelayRate > 0).
	Delay time.Duration
	// CorruptRate flips one byte of a frame in transit (conn faults).
	CorruptRate float64
	// TransientRate fails the operation with an error marked
	// Temporary() == true — a retry is expected to succeed.
	TransientRate float64
	// PermanentRate fails the operation with a non-temporary error.
	PermanentRate float64

	// Disk-fault rates, drawn by the Writer/File wrappers (see disk.go).

	// TornWriteRate persists only a prefix of a Write and fails it — the
	// on-disk effect of a crash mid-append.
	TornWriteRate float64
	// TornWriteBytes caps the persisted prefix of a torn write (0: any
	// prefix strictly shorter than the buffer).
	TornWriteBytes int
	// BitFlipRate flips one bit of the data a Write moves — silent media
	// corruption.
	BitFlipRate float64
	// SyncFailRate fails a Sync call: the data may not be durable.
	SyncFailRate float64
}

// Stats counts injected faults.
type Stats struct {
	Drops       int
	Delays      int
	Corruptions int
	Transients  int
	Permanents  int

	// Disk-fault counters (the File wrapper).
	TornWrites   int
	BitFlips     int
	SyncFailures int
}

// Total is the number of faults injected so far.
func (s Stats) Total() int {
	return s.Drops + s.Delays + s.Corruptions + s.Transients + s.Permanents +
		s.TornWrites + s.BitFlips + s.SyncFailures
}

// String renders the stats in one line.
func (s Stats) String() string {
	out := fmt.Sprintf("faults: %d drops, %d delays, %d corruptions, %d transient, %d permanent",
		s.Drops, s.Delays, s.Corruptions, s.Transients, s.Permanents)
	if disk := s.TornWrites + s.BitFlips + s.SyncFailures; disk > 0 {
		out += fmt.Sprintf("; disk: %d torn writes, %d bit flips, %d sync failures",
			s.TornWrites, s.BitFlips, s.SyncFailures)
	}
	return out
}

// Error is an injected failure.
type Error struct {
	// Op names the faulted surface ("call" or "conn").
	Op string
	// Transient reports whether a retry is expected to succeed.
	Transient bool
}

// Error implements error.
func (e *Error) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faults: injected %s %s failure", kind, e.Op)
}

// Temporary lets retry layers classify the failure.
func (e *Error) Temporary() bool { return e.Transient }

// Injector draws fault decisions from one seeded PRNG.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// New returns an injector for the config.
func New(cfg Config) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = 5 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Config returns a snapshot of the injector's current fault mix.
func (in *Injector) Config() Config {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg
}

// SetConfig swaps the injector's fault mix in place. The PRNG stream and
// the stats keep running — a chaos schedule moving through phases draws
// from one deterministic decision sequence, it only changes the rates
// each draw is tested against. The new config's Seed field is ignored.
func (in *Injector) SetConfig(cfg Config) {
	if cfg.Delay <= 0 {
		cfg.Delay = 5 * time.Millisecond
	}
	in.mu.Lock()
	in.cfg = cfg
	in.mu.Unlock()
}

// delay reads the configured stall under the lock (the config may be
// swapped concurrently by a running schedule).
func (in *Injector) delay() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg.Delay
}

// decision is one draw from the PRNG.
type decision int

const (
	deliver decision = iota
	drop
	delay
	corrupt
	transient
	permanent
)

// decide draws the next fault decision; conn selects the conn-level
// fault set (drop/delay/corrupt), otherwise the call-level set
// (drop/delay/transient/permanent).
func (in *Injector) decide(conn bool) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rng.Float64()
	cum := in.cfg.DropRate
	if r < cum {
		in.stats.Drops++
		return drop
	}
	cum += in.cfg.DelayRate
	if r < cum {
		in.stats.Delays++
		return delay
	}
	if conn {
		cum += in.cfg.CorruptRate
		if r < cum {
			in.stats.Corruptions++
			return corrupt
		}
		return deliver
	}
	cum += in.cfg.TransientRate
	if r < cum {
		in.stats.Transients++
		return transient
	}
	cum += in.cfg.PermanentRate
	if r < cum {
		in.stats.Permanents++
		return permanent
	}
	return deliver
}

// --- vinci.Client wrapper ---

type faultyClient struct {
	in *Injector
	c  vinci.Client
}

// Client wraps a vinci client so each Call may fail or stall before it
// reaches the transport.
func (in *Injector) Client(c vinci.Client) vinci.Client { return &faultyClient{in: in, c: c} }

func (fc *faultyClient) Call(req vinci.Request) (vinci.Response, error) {
	switch fc.in.decide(false) {
	case drop, transient:
		return vinci.Response{}, &Error{Op: "call", Transient: true}
	case permanent:
		return vinci.Response{}, &Error{Op: "call", Transient: false}
	case delay:
		time.Sleep(fc.in.delay())
	}
	return fc.c.Call(req)
}

func (fc *faultyClient) Close() error { return fc.c.Close() }

// --- net.Conn wrapper ---

type faultyConn struct {
	net.Conn
	in *Injector
}

// Conn wraps a connection so each Write may drop the link, stall, or
// corrupt one byte of the outgoing frame. Reads pass through: faulting
// the sending side of each peer covers both directions without double-
// charging a frame.
func (in *Injector) Conn(c net.Conn) net.Conn { return &faultyConn{Conn: c, in: in} }

func (fc *faultyConn) Write(p []byte) (int, error) {
	switch fc.in.decide(true) {
	case drop:
		fc.Conn.Close()
		return 0, &Error{Op: "conn", Transient: true}
	case delay:
		time.Sleep(fc.in.delay())
	case corrupt:
		corrupted := make([]byte, len(p))
		copy(corrupted, p)
		if len(corrupted) > 0 {
			fc.in.mu.Lock()
			i := fc.in.rng.Intn(len(corrupted))
			fc.in.mu.Unlock()
			corrupted[i] ^= 0xFF
		}
		return fc.Conn.Write(corrupted)
	}
	return fc.Conn.Write(p)
}

// Dialer returns a vinci DialOptions.Dialer that wraps every new
// connection with this injector, so faults persist across reconnects.
func (in *Injector) Dialer() func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return in.Conn(conn), nil
	}
}
