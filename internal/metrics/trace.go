package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The span/trace half of the package: a Span times one stage of work
// into a histogram, and a trace ID correlates every stage of one
// request (a document's trip through the pipeline, an RPC fan-out)
// across log lines and Vinci frames.
//
// Trace IDs are generated without math/rand: a process-unique base
// (seeded from the clock once at init) is mixed with an atomic sequence
// number, so concurrent generators never contend on a shared lock and a
// given process emits no duplicate IDs.

var (
	traceBase = uint64(time.Now().UnixNano())
	traceSeq  atomic.Uint64
)

// NewTraceID returns a 16-hex-digit request identifier, unique within
// the process and unlikely to collide across nodes.
func NewTraceID() string {
	n := traceSeq.Add(1)
	// splitmix64-style mixing so consecutive IDs don't look sequential.
	z := traceBase + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return fmt.Sprintf("%016x", z)
}

// Span is an in-flight timing of one stage; End records the elapsed
// nanoseconds into the histogram the span was started from. The zero
// Span is inert: End is a no-op, so optional instrumentation can pass
// spans around without nil checks.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start begins a span that End will record into h.
func (h *Histogram) Start() Span {
	return Span{h: h, start: time.Now()}
}

// End records the elapsed time and returns it.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(int64(d))
	return d
}

// ObserveDuration records a pre-measured duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Laps times consecutive stages of one unit of work with one clock read
// per stage boundary: each Lap closes the running stage, adding its time
// to the caller's accumulator, and opens the next. A stage entered many
// times — once per sentence of a document — sums its laps and is
// recorded once, so no histogram is touched inside the loop.
type Laps struct {
	start time.Time
	last  time.Duration // offset of the latest read from start
}

// StartLaps opens the first stage.
func StartLaps() Laps { return Laps{start: time.Now()} }

// Lap closes the running stage, adds its duration to acc and opens the
// next stage.
func (l *Laps) Lap(acc *time.Duration) {
	now := time.Since(l.start)
	*acc += now - l.last
	l.last = now
}

// Elapsed returns the time from StartLaps to the latest Lap.
func (l *Laps) Elapsed() time.Duration { return l.last }

// Pipeline stage names, in document order. Each stage has a latency
// histogram named "pipeline.stage.<stage>.ns" in the registry; the
// miner records one sample per document in each stage it runs, the sum
// of that stage's per-sentence time.
const (
	StageTokenize  = "tokenize"
	StagePOS       = "pos"
	StageChunk     = "chunk"
	StageSpot      = "spot"
	StageDisambig  = "disambiguate"
	StageSentiment = "sentiment"
)

// Stages lists the pipeline stages in document order.
var Stages = []string{StageTokenize, StagePOS, StageChunk, StageSpot, StageDisambig, StageSentiment}

// Stage returns the latency histogram of one pipeline stage.
func (r *Registry) Stage(stage string) *Histogram {
	return r.Histogram("pipeline.stage." + stage + ".ns")
}
