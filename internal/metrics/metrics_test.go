package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.calls")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.calls") != c {
		t.Error("same name should return the same counter")
	}
	g := r.Gauge("a.depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestHistogramSnapshotPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.SizeHistogram("batch")
	// 100 observations of 1..100: p50 ~ 50, p95 ~ 95, p99 ~ 99 within
	// the doubling-bucket resolution (bucket (64,128] is wide).
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	if s.Sum != 5050 {
		t.Errorf("sum = %d, want 5050", s.Sum)
	}
	if s.Mean != 50.5 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
	if s.P50 < 33 || s.P50 > 66 {
		t.Errorf("p50 = %d, want ~50 within bucket resolution", s.P50)
	}
	if s.P95 < 80 || s.P95 > 100 {
		t.Errorf("p95 = %d, want ~95 within bucket resolution", s.P95)
	}
	if s.P99 < 90 || s.P99 > 100 {
		t.Errorf("p99 = %d, want ~99 within bucket resolution", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("percentiles not monotone: p50=%d p95=%d p99=%d", s.P50, s.P95, s.P99)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveDuration(1500 * time.Nanosecond)
	s := h.Snapshot()
	if s.Min != 1500 || s.Max != 1500 {
		t.Errorf("min/max = %d/%d, want 1500/1500", s.Min, s.Max)
	}
	if s.P50 != 1500 || s.P99 != 1500 {
		t.Errorf("p50/p99 = %d/%d, want clamped to 1500", s.P50, s.P99)
	}
}

func TestHistogramOverflowAndNegative(t *testing.T) {
	r := NewRegistry()
	h := r.SizeHistogram("big")
	h.Observe(-5)            // clamps to 0
	h.Observe(1 << 40)       // overflow bucket
	h.Observe(sizeBounds[0]) // smallest bound
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0 {
		t.Errorf("min = %d, want 0 (negative clamped)", s.Min)
	}
	if s.Max != 1<<40 {
		t.Errorf("max = %d", s.Max)
	}
	if s.P99 != 1<<40 {
		t.Errorf("p99 = %d, want max for overflow bucket", s.P99)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	s := r.Histogram("never").Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P50 != 0 {
		t.Errorf("empty snapshot not zero: %+v", s)
	}
}

// TestConcurrentStress hammers counters and histograms from many
// goroutines while snapshots are read concurrently — the -race guard
// for the lock-free hot path the instrumented packages rely on.
func TestConcurrentStress(t *testing.T) {
	r := NewRegistry()
	const (
		writers = 8
		readers = 4
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("stress.calls")
			h := r.Histogram("stress.ns")
			g := r.Gauge("stress.depth")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(w*perG + i))
				g.Set(int64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				if c := s.Counters["stress.calls"]; c < 0 {
					t.Errorf("negative counter %d", c)
					return
				}
				h := s.Histograms["stress.ns"]
				if h.Count > 0 && (h.P50 > h.P95 || h.P95 > h.P99) {
					t.Errorf("non-monotone percentiles under concurrency: %+v", h)
					return
				}
				_ = r.Text()
			}
		}()
	}
	go func() {
		// Writers finish on their own; give readers overlap then stop.
		time.Sleep(10 * time.Millisecond)
		close(stop)
	}()
	wg.Wait()
	if got := r.Counter("stress.calls").Value(); got != writers*perG {
		t.Errorf("final counter = %d, want %d", got, writers*perG)
	}
	if got := r.Histogram("stress.ns").Count(); got != writers*perG {
		t.Errorf("final histogram count = %d, want %d", got, writers*perG)
	}
}

// TestWriteTextGolden locks down the /metrics text rendering format.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("vinci.server.store.get.calls").Add(42)
	r.Counter("ingest.docs").Add(7)
	r.Gauge("store.degraded").Set(0)
	r.Gauge("serving.generation").Set(1)
	h := r.SizeHistogram("store.wal.batch.records")
	for _, v := range []int64{1, 2, 2, 4, 8} {
		h.Observe(v)
	}
	want := strings.Join([]string{
		"counter ingest.docs 7",
		"counter vinci.server.store.get.calls 42",
		"gauge serving.generation 1",
		"gauge store.degraded 0",
		"histogram store.wal.batch.records count=5 sum=17 min=1 max=8 mean=3.4 p50=1 p95=7 p99=7",
		"",
	}, "\n")
	if got := r.Text(); got != want {
		t.Errorf("text rendering drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Histogram("y.ns").Observe(1000)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["x"] != 1 {
		t.Errorf("counter lost in JSON: %+v", s)
	}
	if s.Histograms["y.ns"].Count != 1 {
		t.Errorf("histogram lost in JSON: %+v", s)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	const n = 10000
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]string, 0, n/8)
			for i := 0; i < n/8; i++ {
				local = append(local, NewTraceID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if len(id) != 16 {
					t.Errorf("trace ID %q not 16 hex digits", id)
					return
				}
				if seen[id] {
					t.Errorf("duplicate trace ID %q", id)
					return
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestZeroSpanIsInert(t *testing.T) {
	var s Span
	if d := s.End(); d != 0 {
		t.Errorf("zero span End = %v, want 0", d)
	}
}

func TestStageHistogramNames(t *testing.T) {
	r := NewRegistry()
	sp := r.Stage(StageTokenize).Start()
	sp.End()
	s := r.Snapshot()
	if s.Histograms["pipeline.stage.tokenize.ns"].Count != 1 {
		t.Errorf("stage histogram missing: %v", s.Histograms)
	}
}

// TestLapsPartitionElapsed: laps never overlap or leave gaps, so the
// stages they close sum to the elapsed time, however often a stage is
// re-entered.
func TestLapsPartitionElapsed(t *testing.T) {
	var a, b time.Duration
	l := StartLaps()
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		l.Lap(&a)
		l.Lap(&b)
	}
	if a < 3*time.Millisecond || b < 0 {
		t.Fatalf("laps a=%v b=%v, want a >= 3ms and b >= 0", a, b)
	}
	if a+b != l.Elapsed() {
		t.Fatalf("laps sum to %v, elapsed %v", a+b, l.Elapsed())
	}
}
