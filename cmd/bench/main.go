// Command bench runs the platform's performance benchmarks outside `go
// test` and records the results as JSON, so every PR's speedup (or
// regression) is a committed artifact rather than a claim. It covers
// the ingest→index pipeline end to end (serial vs. worker-pool), the
// sharded inverted index, WAL durability under concurrent writers,
// and the single-thread NLP micro-benchmarks that guard against
// regressions on the non-parallel paths. Three scenario probes cover
// the distributed paths: p99 latency under 2× open-loop overload with
// admission control on vs. off, the extra-call fraction of hedged
// reads, and the per-put cost of the write quorum (W=1 vs W=2) on the
// replicated tier. A fourth probe drives an open-loop read storm at the
// live serving tier, comparing per-request store scans against the
// materialized aggregates with and without the gateway's result cache —
// the numbers behind the serving tier's "query cost must not grow with
// the corpus" claim. A fifth probe measures serving-tier recovery time:
// cold full re-mine of a durable corpus vs. checkpoint restore plus
// watermark repair of the un-checkpointed tail — the bound the
// crash-recoverable serving tier puts on restart.
//
//	bench [-quick] [-docs N] [-out BENCH_PR10.json]
//	bench -compare old.json new.json
//
// The -compare mode doubles as the allocation regression gate for the
// zero-alloc mining hot path: besides the before/after table it fails
// (exit 1) when any mine/* benchmark's allocs/op regressed more than
// 10% against the old file, so CI's bench-smoke catches an accidental
// re-introduction of per-document garbage.
//
// The JSON records ns/op, MB/s and allocs/op per benchmark plus the
// machine shape (CPUs, GOMAXPROCS) the numbers were taken on — parallel
// speedups are only meaningful relative to the recorded CPU count. A
// GOMAXPROCS sweep (1/2/4) re-runs the 4-worker ingest bench with the
// scheduler pinned to each width (ingest/4w@2p etc.), separating "more
// workers" from "more CPUs" in the scaling story. The
// report also embeds a snapshot of the metrics registry taken after the
// run, so the per-stage pipeline latency histograms land in the same
// artifact as the throughput numbers. The -compare mode prints a
// before/after table of two result files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	webfountain "webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/index"
	"webfountain/internal/metrics"
	"webfountain/internal/pos"
	"webfountain/internal/serve"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
	"webfountain/internal/vinci"
)

// Result is one benchmark's recorded numbers.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the file layout of BENCH_*.json.
type Report struct {
	Bench      string             `json:"bench"`
	GoVersion  string             `json:"go"`
	CPUs       int                `json:"cpus"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Quick      bool               `json:"quick,omitempty"`
	Docs       int                `json:"docs"`
	Timestamp  string             `json:"timestamp"`
	Results    []Result           `json:"results"`
	Derived    map[string]float64 `json:"derived,omitempty"`
	// Metrics is the registry snapshot taken after the run: the
	// per-stage pipeline latency histograms, WAL counters and RPC
	// metrics the benchmarked code paths populated.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	quick := flag.Bool("quick", false, "smaller corpora for CI smoke runs")
	docsFlag := flag.Int("docs", 0, "corpus size per ingest iteration (0: 200, or 40 with -quick)")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	docs := *docsFlag
	if docs <= 0 {
		if *quick {
			docs = 40
		} else {
			docs = 200
		}
	}
	rep := run(docs, *quick)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks, %d CPUs)\n", *out, len(rep.Results), rep.CPUs)
}

// run executes the benchmark suite and assembles the report.
func run(docs int, quick bool) Report {
	rep := Report{
		Bench:      "PR10",
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Docs:       docs,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	generated := corpus.DigitalCameraReviews(1, docs)
	batch := make([]webfountain.Document, len(generated))
	textBytes := 0
	for i := range generated {
		batch[i] = webfountain.Document{Text: generated[i].Text()}
		textBytes += len(batch[i].Text)
	}
	tk := tokenize.New()
	tokenized := make([][]string, len(batch))
	for i := range batch {
		toks := tk.Tokenize(batch[i].Text)
		words := make([]string, len(toks))
		for j := range toks {
			words[j] = toks[j].Text
		}
		tokenized[i] = words
	}

	byName := map[string]Result{}
	record := func(name string, bytesPerOp int64, fn func(b *testing.B)) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if bytesPerOp > 0 {
				b.SetBytes(bytesPerOp)
			}
			fn(b)
		})
		res := Result{
			Name:        name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if bytesPerOp > 0 && r.T > 0 {
			res.MBPerSec = float64(bytesPerOp) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		byName[name] = res
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-32s %12.0f ns/op %10.2f MB/s %8d allocs/op\n",
			name, res.NsPerOp, res.MBPerSec, res.AllocsPerOp)
	}

	// End-to-end ingest→index, serial baseline vs. worker pool.
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("ingest/%dw", workers)
		record(name, int64(textBytes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := webfountain.NewPlatform(webfountain.PlatformConfig{IngestWorkers: workers})
				if _, err := p.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// GOMAXPROCS sweep: the same 4-worker ingest pinned to 1, 2 and 4
	// scheduler threads. The worker-count loop above varies parallelism
	// in the pipeline; this varies parallelism in the machine, so the
	// two can be read against each other (4w@1p ≈ 1w shows the pool is
	// scheduler-bound, not lock-bound). GOMAXPROCS is restored before
	// any other benchmark runs.
	prevProcs := runtime.GOMAXPROCS(0)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		name := fmt.Sprintf("ingest/4w@%dp", procs)
		record(name, int64(textBytes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := webfountain.NewPlatform(webfountain.PlatformConfig{IngestWorkers: 4})
				if _, err := p.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	runtime.GOMAXPROCS(prevProcs)

	// Sharded index: single-writer adds, concurrent adds, queries.
	record("index/add", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := index.New()
			for j := range tokenized {
				ix.Add(fmt.Sprintf("doc-%06d", j), tokenized[j])
			}
		}
	})
	record("index/add-parallel", 0, func(b *testing.B) {
		ix := index.New()
		var id atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			j := 0
			for pb.Next() {
				ix.Add(fmt.Sprintf("doc-%08d", id.Add(1)), tokenized[j%len(tokenized)])
				j++
			}
		})
	})
	queryIx := index.New()
	for j := range tokenized {
		queryIx.Add(fmt.Sprintf("doc-%06d", j), tokenized[j])
	}
	record("index/search-term", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			queryIx.Search(index.And(index.Term("camera"), index.Term("battery")))
		}
	})
	record("index/search-phrase", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			queryIx.Search(index.Phrase("battery", "life"))
		}
	})
	if re, err := index.Regexp("^pict"); err == nil {
		record("index/search-regexp", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				queryIx.Search(re)
			}
		})
	}
	// Posting-list footprint of the compressed (delta-varint) index over
	// the benchmark corpus, against the flat layout it replaced.
	postStats := queryIx.PostingStats()

	// Single-thread NLP micro-benchmarks: the no-regression guard for
	// the paths the pipeline did not parallelize.
	sample := batch[0].Text
	record("tokenize", int64(len(sample)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tk.Tokenize(sample)
		}
	})
	tagger := pos.NewTagger()
	sampleToks := tk.Tokenize(sample)
	record("pos-tag", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tagger.Tag(sampleToks)
		}
	})

	// WAL durability: eight concurrent writers through the store's one
	// commit path (a write+fsync per commit, shared by whoever queued).
	entities := make([]*store.Entity, len(generated))
	for i := range generated {
		entities[i] = &store.Entity{ID: generated[i].ID, Source: "review", Text: generated[i].Text()}
	}
	record("store/wal-put", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "wfbench-*")
			if err != nil {
				b.Fatal(err)
			}
			st, err := store.Open(dir, store.Options{Shards: 16})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < len(entities); j += 8 {
						if err := st.Put(entities[j]); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			st.Close()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	})

	// Full mining pipeline over an ingested corpus. Besides the number
	// itself, this populates the per-stage latency histograms
	// (pipeline.stage.*) that the Metrics section below snapshots.
	minePlatform := webfountain.NewPlatform(webfountain.PlatformConfig{})
	if _, err := minePlatform.Ingest(batch); err != nil {
		fmt.Fprintln(os.Stderr, "mine bench ingest:", err)
		os.Exit(1)
	}
	record("mine/pipeline", int64(textBytes), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(minePlatform); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Mode 1 (predefined subjects) covers the spot→disambiguate path
	// that entity mode skips, so its stage histogram fills too. The
	// on/off-topic terms instantiate a disambiguator for NR70.
	record("mine/subjects", int64(textBytes), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{Subjects: []webfountain.Subject{
				{Canonical: "NR70",
					OnTopic:  []string{"camera", "pictures", "battery"},
					OffTopic: []string{"soundtrack", "album"}},
				{Canonical: "battery"}, {Canonical: "CLIE"},
			}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(minePlatform); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Cost of the instrumentation primitives themselves. The hot paths
	// pay one span plus a couple of counter increments per document, so
	// these two numbers bound the observability overhead.
	benchCounter := metrics.Default().Counter("bench.calibration.count")
	benchSpan := metrics.Default().Histogram("bench.calibration.ns")
	record("metrics/counter-inc", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchCounter.Inc()
		}
	})
	record("metrics/span", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSpan.Start().End()
		}
	})

	rep.Derived = map[string]float64{}
	// Postings compression: encoded bytes per document and the ratio
	// against the flat posting-struct layout the codec replaced.
	if postStats.EncodedBytes > 0 {
		rep.Derived["postings_compression_ratio"] = postStats.Ratio()
		rep.Derived["postings_encoded_bytes_per_doc"] = float64(postStats.EncodedBytes) / float64(docs)
		rep.Derived["postings_flat_bytes_per_doc"] = float64(postStats.FlatBytes) / float64(docs)
		fmt.Printf("%-32s %12.2fx smaller %7.0f B/doc (flat %.0f B/doc)\n",
			"index/postings-compression", postStats.Ratio(),
			float64(postStats.EncodedBytes)/float64(docs), float64(postStats.FlatBytes)/float64(docs))
	}
	// Estimated instrumentation overhead on the ingest path: each
	// document pays one span and two counter adds.
	if sp, ok := byName["metrics/span"]; ok {
		if ci, ok := byName["metrics/counter-inc"]; ok {
			if ing, ok := byName["ingest/1w"]; ok && ing.NsPerOp > 0 {
				perDoc := sp.NsPerOp + 2*ci.NsPerOp
				rep.Derived["metrics_overhead_pct_ingest_1w"] = perDoc * float64(docs) / ing.NsPerOp * 100
			}
		}
	}
	if s, ok := byName["ingest/1w"]; ok {
		if p, ok := byName["ingest/8w"]; ok && p.NsPerOp > 0 {
			rep.Derived["ingest_speedup_8w_vs_1w"] = s.NsPerOp / p.NsPerOp
		}
	}
	if s, ok := byName["ingest/4w@1p"]; ok {
		if p, ok := byName["ingest/4w@4p"]; ok && p.NsPerOp > 0 {
			rep.Derived["ingest_4w_speedup_4p_vs_1p"] = s.NsPerOp / p.NsPerOp
		}
	}
	// Overload and hedging probes: scenario measurements rather than
	// testing.Benchmark loops. The first drives an open-loop 2×-capacity
	// storm at a vinci server with admission control off and on — the
	// without/with numbers show what shedding buys: a bounded p99 for the
	// requests that are served, at the price of an explicit shed
	// fraction. The second measures what hedged reads cost: the fraction
	// of extra calls fired, which must stay near the slow-call rate.
	overloadCalls, hedgeCalls := 400, 400
	if quick {
		overloadCalls, hedgeCalls = 160, 120
	}
	for _, shed := range []bool{false, true} {
		p99, shedFrac, err := probeOverload(shed, overloadCalls)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overload probe:", err)
			os.Exit(1)
		}
		key := "p99_overload_shed_off_ms"
		if shed {
			key = "p99_overload_shed_on_ms"
			rep.Derived["shed_fraction_2x"] = shedFrac
		}
		rep.Derived[key] = float64(p99) / 1e6
		fmt.Printf("%-32s %12.2f ms p99 %10.0f%% shed\n",
			fmt.Sprintf("overload/2x-shed=%v", shed), float64(p99)/1e6, shedFrac*100)
	}
	extraFrac, p99Hedged, p99Plain, err := probeHedge(hedgeCalls)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hedge probe:", err)
		os.Exit(1)
	}
	rep.Derived["hedge_extra_call_fraction"] = extraFrac
	rep.Derived["p99_hedged_ms"] = float64(p99Hedged) / 1e6
	rep.Derived["p99_unhedged_ms"] = float64(p99Plain) / 1e6
	fmt.Printf("%-32s %12.2f ms p99 (plain %.2f) %6.1f%% extra calls\n",
		"hedge/tail-read", float64(p99Hedged)/1e6, float64(p99Plain)/1e6, extraFrac*100)
	// Quorum probe: what the W=2 durability guarantee costs per acked
	// write. Both runs drive the same 3-node/2-replica in-process
	// platform; the only difference is whether the router acks on the
	// first replica (availability mode) or waits for both.
	quorumPuts := 400
	if quick {
		quorumPuts = 150
	}
	var w1Mean time.Duration
	for _, w := range []int{1, 2} {
		mean, p99, err := probeQuorum(w, quorumPuts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quorum probe:", err)
			os.Exit(1)
		}
		rep.Derived[fmt.Sprintf("put_w%d_mean_us", w)] = float64(mean) / 1e3
		rep.Derived[fmt.Sprintf("put_w%d_p99_us", w)] = float64(p99) / 1e3
		if w == 1 {
			w1Mean = mean
		} else if w1Mean > 0 {
			rep.Derived["quorum_w2_overhead_pct"] = (float64(mean)/float64(w1Mean) - 1) * 100
		}
		fmt.Printf("%-32s %12.2f us mean %9.2f us p99\n",
			fmt.Sprintf("quorum/put-w%d", w), float64(mean)/1e3, float64(p99)/1e3)
	}
	// Read storm against the live serving tier: the scan path pays a
	// trend-miner pass over the store on every request, the aggregate
	// path reads the materialized snapshot, and the cached path serves
	// stored bytes. Same query mix, same open-loop arrival rate.
	stormCalls, stormQPS := 3000, 3000.0
	if quick {
		stormCalls, stormQPS = 800, 2000.0
	}
	stormDerived, err := probeReadStorm(generated, stormCalls, stormQPS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "read-storm probe:", err)
		os.Exit(1)
	}
	for k, v := range stormDerived {
		rep.Derived[k] = v
	}
	// Recovery probe: what the serving tier's checkpoint buys at boot.
	// Cold is a full batch re-mine of the durable corpus; repair is
	// checkpoint load plus re-mining only the un-checkpointed tail.
	coldMs, repairMs, repairedDocs, err := probeRecovery(generated)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recovery probe:", err)
		os.Exit(1)
	}
	rep.Derived["recovery_cold_remine_ms"] = coldMs
	rep.Derived["recovery_checkpoint_repair_ms"] = repairMs
	rep.Derived["recovery_repaired_docs"] = float64(repairedDocs)
	if repairMs > 0 {
		rep.Derived["recovery_speedup"] = coldMs / repairMs
	}
	fmt.Printf("%-32s %12.2f ms cold %9.2f ms repair (%d docs repaired, %.1fx)\n",
		"recovery/checkpoint-vs-remine", coldMs, repairMs, repairedDocs, coldMs/repairMs)

	snap := metrics.Default().Snapshot()
	rep.Metrics = &snap
	return rep
}

// probeOverload measures served-request p99 under a 2×-capacity open-loop
// storm. The handler models a server with `slots` worker slots and a
// fixed service time; arrivals come at twice the resulting capacity.
// With shed=false every arrival queues (on the handler's semaphore) and
// the backlog grows for as long as the storm lasts; with shed=true the
// admission queue bounds the wait and sheds the excess instead.
func probeOverload(shed bool, calls int) (p99 time.Duration, shedFrac float64, err error) {
	// A deliberately slow service time keeps the open-loop pacing well
	// above timer granularity, so the 2× arrival rate is actually
	// achieved even on one-CPU CI runners.
	const slots = 4
	const service = 20 * time.Millisecond
	sem := make(chan struct{}, slots)
	reg := vinci.NewRegistry()
	reg.Register("bench-slow", func(req vinci.Request) vinci.Response {
		sem <- struct{}{}
		time.Sleep(service)
		<-sem
		return vinci.OKResponse(nil)
	})
	var srv *vinci.Server
	if shed {
		srv = vinci.NewServerWith(reg, vinci.ServerOptions{Admission: vinci.AdmissionConfig{
			Capacity: slots, Depth: slots, Policy: "lifo", MaxWait: 5 * time.Millisecond,
		}})
	} else {
		srv = vinci.NewServer(reg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go srv.Serve(ln)
	defer srv.Close()

	// One transport per in-flight call: the protocol serializes calls on
	// a connection, so sharing transports would throttle the storm.
	clients := make([]vinci.Client, calls)
	for i := range clients {
		clients[i], err = vinci.DialWith(ln.Addr().String(), vinci.DialOptions{
			CallTimeout: 10 * time.Second,
			Retry:       vinci.RetryPolicy{MaxAttempts: 1},
		})
		if err != nil {
			return 0, 0, err
		}
		defer clients[i].Close()
	}

	interarrival := service / (2 * slots) // 2× the slots/service capacity
	var (
		mu         sync.Mutex
		latencies  []time.Duration
		overloaded int
		wg         sync.WaitGroup
	)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(c vinci.Client) {
			defer wg.Done()
			start := time.Now()
			_, cerr := c.Call(vinci.Request{Service: "bench-slow", Op: "work"})
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			if cerr == nil {
				latencies = append(latencies, elapsed)
			} else if vinci.IsOverloaded(cerr) {
				overloaded++
			}
		}(clients[i])
		time.Sleep(interarrival)
	}
	wg.Wait()
	if len(latencies) == 0 {
		return 0, 0, fmt.Errorf("no calls served (shed=%v)", shed)
	}
	return p99Of(latencies), float64(overloaded) / float64(calls), nil
}

// probeHedge measures the latency and extra-load cost of hedged reads
// against a handler whose every 25th response stalls. The plain client
// eats the stall in its p99; the hedged client fires a second attempt
// after the trigger and takes the fast answer — at the cost of one extra
// call per stall, so the extra-call fraction must track the ~4% stall
// rate rather than the total call count.
func probeHedge(calls int) (extraFrac float64, p99Hedged, p99Plain time.Duration, err error) {
	const fast, slow = 300 * time.Microsecond, 10 * time.Millisecond
	const trigger = 5 * time.Millisecond
	// Think time between calls, sized to cover the stalled loser's
	// remaining service time (slow − trigger). The transports are
	// serialized, so without it a hedged call's abandoned primary attempt
	// is still draining when the next call is issued, which queues behind
	// it, looks slow, hedges too, and cascades — inflating the extra-call
	// fraction with transport-queueing effects the probe is not after.
	const think = slow - trigger + time.Millisecond
	var n atomic.Int64
	reg := vinci.NewRegistry()
	reg.Register("bench-read", func(req vinci.Request) vinci.Response {
		if n.Add(1)%25 == 0 {
			time.Sleep(slow)
		} else {
			time.Sleep(fast)
		}
		return vinci.OKResponse(nil)
	})
	srv := vinci.NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	go srv.Serve(ln)
	defer srv.Close()

	dial := func() (vinci.Client, error) {
		return vinci.DialWith(ln.Addr().String(), vinci.DialOptions{
			CallTimeout: 10 * time.Second,
			Retry:       vinci.RetryPolicy{MaxAttempts: 1},
		})
	}
	measure := func(c vinci.Client) ([]time.Duration, error) {
		lat := make([]time.Duration, 0, calls)
		for i := 0; i < calls; i++ {
			start := time.Now()
			if _, cerr := c.Call(vinci.Request{Service: "bench-read", Op: "get"}); cerr != nil {
				return nil, cerr
			}
			lat = append(lat, time.Since(start))
			time.Sleep(think)
		}
		return lat, nil
	}

	plain, err := dial()
	if err != nil {
		return 0, 0, 0, err
	}
	defer plain.Close()
	plainLat, err := measure(plain)
	if err != nil {
		return 0, 0, 0, err
	}

	primary, err := dial()
	if err != nil {
		return 0, 0, 0, err
	}
	secondary, err := dial()
	if err != nil {
		primary.Close()
		return 0, 0, 0, err
	}
	hedged := vinci.NewHedged(primary, secondary, vinci.HedgeOptions{
		After:        trigger, // well past fast, well short of slow
		IsIdempotent: func(service string) bool { return service == "bench-read" },
	})
	defer hedged.Close()
	hedgesBefore := metrics.Default().Counter("vinci.client.hedges").Value()
	hedgedLat, err := measure(hedged)
	if err != nil {
		return 0, 0, 0, err
	}
	hedges := metrics.Default().Counter("vinci.client.hedges").Value() - hedgesBefore
	return float64(hedges) / float64(calls), p99Of(hedgedLat), p99Of(plainLat), nil
}

// probeQuorum measures per-put latency through the replicated tier's
// acked-write path at write quorum w. The platform is the in-process
// 3-node/2-replica deployment the chaos harness uses; Put goes through
// the router's quorum fan-out, so the W=1 vs W=2 gap is exactly the
// cost of waiting for the second replica before the ack — the price of
// the no-acked-write-lost guarantee the quorum chaos archetypes prove.
func probeQuorum(w, puts int) (mean, p99 time.Duration, err error) {
	dp, err := webfountain.NewDistributedPlatform(webfountain.DistributedConfig{
		Nodes: 3, Replicas: 2, Seed: 7, WriteQuorum: w,
	})
	if err != nil {
		return 0, 0, err
	}
	defer dp.Close()
	r := dp.Router()
	lat := make([]time.Duration, 0, puts)
	var total time.Duration
	for i := 0; i < puts; i++ {
		e := &store.Entity{
			ID:     fmt.Sprintf("bench-q%d-%05d", w, i),
			Source: "bench",
			Text:   "quorum write latency probe body",
		}
		start := time.Now()
		if perr := r.Put(e); perr != nil {
			return 0, 0, perr
		}
		d := time.Since(start)
		lat = append(lat, d)
		total += d
	}
	return total / time.Duration(puts), p99Of(lat), nil
}

// probeReadStorm measures query latency under a sustained open-loop
// read storm against three serving configurations over the same mined
// corpus:
//
//   - scan: every trend query re-runs the trend miner over the store —
//     the pre-serving-tier cost model, O(corpus) per request;
//   - agg: the gateway's /api/trend off the materialized aggregate
//     snapshot, result cache disabled;
//   - cached: the same endpoint with the bounded LRU on, so a repeated
//     query serves stored bytes.
//
// Arrivals are open-loop at the target QPS: a slow server does not slow
// the arrival process, it grows a queue — so the p99s show each path
// under load, not at leisure. The tenant limiter is configured wide
// open; rate limiting is probed by its own unit tests, not here.
func probeReadStorm(generated []corpus.Document, calls int, qps float64) (map[string]float64, error) {
	batch := make([]webfountain.Document, len(generated))
	for i := range generated {
		batch[i] = webfountain.Document{
			ID: generated[i].ID, Source: generated[i].Source,
			Title: generated[i].Title, Date: generated[i].Date,
			Text: generated[i].Text(),
		}
	}
	p := webfountain.NewPlatform(webfountain.PlatformConfig{})
	if _, err := p.Ingest(batch); err != nil {
		return nil, err
	}
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return nil, err
	}
	facts, err := m.Run(p)
	if err != nil {
		return nil, err
	}
	tier := webfountain.NewServingTier(p, m, facts)
	subjects := tier.View().Subjects()
	if len(subjects) == 0 {
		return nil, fmt.Errorf("read storm: no mined subjects")
	}
	if len(subjects) > 8 {
		subjects = subjects[:8] // a small rotating working set, like real dashboards
	}

	// The scan path: a minimal handler that re-derives the series from
	// the store on every request, which is what serving trend queries
	// cost before the materialized aggregates existed.
	scan := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		series, _, _ := p.SentimentTrend(r.URL.Query().Get("name"))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(series)
	})
	open := serve.GatewayConfig{TenantRate: 1e12, TenantBurst: 1 << 30}
	agg := serve.NewGateway(tier, serve.GatewayConfig{
		CacheEntries: -1, TenantRate: open.TenantRate, TenantBurst: open.TenantBurst,
	})
	cached := serve.NewGateway(tier, open)

	storm := func(h http.Handler) ([]time.Duration, error) {
		interarrival := time.Duration(float64(time.Second) / qps)
		var (
			mu   sync.Mutex
			lats []time.Duration
			bad  int
			wg   sync.WaitGroup
		)
		for i := 0; i < calls; i++ {
			target := "/api/trend?name=" + url.QueryEscape(subjects[i%len(subjects)])
			wg.Add(1)
			go func(target string) {
				defer wg.Done()
				req := httptest.NewRequest("GET", target, nil)
				rec := httptest.NewRecorder()
				start := time.Now()
				h.ServeHTTP(rec, req)
				elapsed := time.Since(start)
				mu.Lock()
				defer mu.Unlock()
				if rec.Code != http.StatusOK {
					bad++
					return
				}
				lats = append(lats, elapsed)
			}(target)
			time.Sleep(interarrival)
		}
		wg.Wait()
		if bad > 0 {
			return nil, fmt.Errorf("read storm: %d non-200 responses", bad)
		}
		return lats, nil
	}
	meanOf := func(lats []time.Duration) time.Duration {
		var total time.Duration
		for _, d := range lats {
			total += d
		}
		return total / time.Duration(len(lats))
	}

	derived := map[string]float64{
		"read_storm_qps":   qps,
		"read_storm_calls": float64(calls),
	}
	hitsBefore := metrics.Default().Counter("serve.cache.hits").Value()
	for _, tc := range []struct {
		name, meanKey, p99Key string
		h                     http.Handler
	}{
		{"storm/scan-trend", "scan_trend_mean_us", "scan_trend_p99_ms", scan},
		{"storm/agg-trend-nocache", "agg_trend_nocache_mean_us", "agg_trend_nocache_p99_ms", agg},
		{"storm/agg-trend-cached", "agg_trend_cached_mean_us", "agg_trend_cached_p99_ms", cached},
	} {
		lats, err := storm(tc.h)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		mean, p99 := meanOf(lats), p99Of(lats)
		derived[tc.meanKey] = float64(mean) / 1e3
		derived[tc.p99Key] = float64(p99) / 1e6
		fmt.Printf("%-32s %12.2f us mean %9.3f ms p99\n",
			tc.name, float64(mean)/1e3, float64(p99)/1e6)
	}
	hits := metrics.Default().Counter("serve.cache.hits").Value() - hitsBefore
	derived["read_storm_cache_hit_fraction"] = float64(hits) / float64(calls)
	if derived["agg_trend_cached_mean_us"] > 0 {
		derived["read_storm_speedup_cached_vs_scan"] =
			derived["scan_trend_mean_us"] / derived["agg_trend_cached_mean_us"]
	}
	if derived["agg_trend_nocache_mean_us"] > 0 {
		derived["read_storm_speedup_agg_vs_scan"] =
			derived["scan_trend_mean_us"] / derived["agg_trend_nocache_mean_us"]
	}
	fmt.Printf("%-32s %12.2fx cached %9.2fx uncached %5.0f%% hits\n",
		"storm/speedup-vs-scan", derived["read_storm_speedup_cached_vs_scan"],
		derived["read_storm_speedup_agg_vs_scan"], derived["read_storm_cache_hit_fraction"]*100)
	return derived, nil
}

// probeRecovery measures serving-tier restart time two ways over the
// same durable corpus. Setup: 90% of the documents flow through a
// checkpointing tier which then checkpoints; the final 10% are acked
// by the platform alone — the crash window where durable ingests never
// reached the aggregates — and the process "dies" without a final
// checkpoint. The repair path times RecoverServingTier (checkpoint
// load + re-mine of just the tail); the cold path times a full batch
// re-mine of the whole corpus. Both timings start after the platform
// itself is open, isolating the serving tier's boot cost.
func probeRecovery(generated []corpus.Document) (coldMs, repairMs float64, repairedDocs int, err error) {
	base, err := os.MkdirTemp("", "bench-recovery-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(base)
	dataDir := filepath.Join(base, "data")
	ckptDir := filepath.Join(base, "ckpt")

	docs := make([]webfountain.ServingDoc, len(generated))
	for i := range generated {
		docs[i] = webfountain.ServingDoc{
			ID:   fmt.Sprintf("doc-%05d", i),
			Date: generated[i].Date,
			Text: generated[i].Text(),
		}
	}
	split := len(docs) * 9 / 10

	// Build the pre-crash state: checkpointed head, durable-only tail.
	p, err := webfountain.OpenPlatform(webfountain.PlatformConfig{DataDir: dataDir})
	if err != nil {
		return 0, 0, 0, err
	}
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return 0, 0, 0, err
	}
	tier, _, err := webfountain.RecoverServingTier(p, m, webfountain.ServingTierConfig{CheckpointDir: ckptDir})
	if err != nil {
		return 0, 0, 0, err
	}
	if _, _, err := tier.Ingest(context.Background(), docs[:split]); err != nil {
		return 0, 0, 0, err
	}
	if err := tier.Checkpoint(); err != nil {
		return 0, 0, 0, err
	}
	tail := make([]webfountain.Document, 0, len(docs)-split)
	for _, d := range docs[split:] {
		tail = append(tail, webfountain.Document{ID: d.ID, Date: d.Date, Text: d.Text})
	}
	if _, err := p.Ingest(tail); err != nil {
		return 0, 0, 0, err
	}
	if err := p.Close(); err != nil { // crash for the tier: no tier.Close, no final checkpoint
		return 0, 0, 0, err
	}

	// Repair path: checkpoint restore + watermark repair of the tail.
	p2, err := webfountain.OpenPlatform(webfountain.PlatformConfig{DataDir: dataDir})
	if err != nil {
		return 0, 0, 0, err
	}
	m2, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	_, rec, err := webfountain.RecoverServingTier(p2, m2, webfountain.ServingTierConfig{CheckpointDir: ckptDir})
	if err != nil {
		return 0, 0, 0, err
	}
	repairMs = float64(time.Since(start)) / 1e6
	repairedDocs = rec.RepairedDocs
	p2.Close()

	// Cold path: full batch re-mine, no checkpoint.
	p3, err := webfountain.OpenPlatform(webfountain.PlatformConfig{DataDir: dataDir})
	if err != nil {
		return 0, 0, 0, err
	}
	m3, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return 0, 0, 0, err
	}
	start = time.Now()
	facts, err := m3.Run(p3)
	if err != nil {
		return 0, 0, 0, err
	}
	webfountain.NewServingTier(p3, m3, facts)
	coldMs = float64(time.Since(start)) / 1e6
	p3.Close()
	return coldMs, repairMs, repairedDocs, nil
}

// p99Of returns the 99th-percentile latency of a sample set.
func p99Of(lat []time.Duration) time.Duration {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := len(lat) * 99 / 100
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}

// compareFiles prints a before/after table of two result files and
// enforces the mining-path allocation gate: any mine/* benchmark whose
// allocs/op grew more than 10% over the old file fails the comparison.
func compareFiles(oldPath, newPath string) error {
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	oldBy := map[string]Result{}
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	var failures []string
	fmt.Printf("%-32s %14s %14s %9s %12s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	for _, nr := range newRep.Results {
		or, ok := oldBy[nr.Name]
		if !ok || or.NsPerOp <= 0 {
			fmt.Printf("%-32s %14s %14.0f %9s %12s %12d\n",
				nr.Name, "-", nr.NsPerOp, "new", "-", nr.AllocsPerOp)
			continue
		}
		delta := (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		fmt.Printf("%-32s %14.0f %14.0f %+8.1f%% %12d %12d\n",
			nr.Name, or.NsPerOp, nr.NsPerOp, delta, or.AllocsPerOp, nr.AllocsPerOp)
		if strings.HasPrefix(nr.Name, "mine/") && or.AllocsPerOp > 0 {
			if float64(nr.AllocsPerOp) > float64(or.AllocsPerOp)*1.10 {
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/op %d -> %d (>+10%%)", nr.Name, or.AllocsPerOp, nr.AllocsPerOp))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation regression on the mining path:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return nil
}

func load(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
