// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/wfserver, boots the real binary on fresh durable directories,
// drives it over loopback HTTP with a seeded request stream, checks the
// answers against an offline reference mine, and — in a second, traced
// run — attributes the time to the repository's layers. README.md in
// this directory is the glossary; BENCHMARK.json at the repository root
// is the contract.
//
//	bash benchmark/run.sh --workload ingest_bulk --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload ingest_bulk --seed 42 --seconds 20 --trace 1
//	bash benchmark/run.sh -record benchmark/baseline/run-a.json -seeds 42,1042 -runs 5
//	bash benchmark/run.sh -compare benchmark/baseline/run-a.json benchmark/baseline/run-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names a metric the contract lists in BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a -trace 0 run reports: what a client of
// wfserver sees. The list must match BENCHMARK.json's end_to_end (a
// test checks it). Metrics that were measured but did not repeat within
// their bound on the recording machine are demoted to diagnostics; see
// README.md "Demoted metrics".
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_docs_per_s", "docs/s"},
	{"query_p50_ms", "ms"},
	{"disk_bytes_per_doc", "B/doc"},
	{"server_rss_mb", "MB"},
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}

func main() {
	workload := flag.String("workload", "", "workload to run: ingest_bulk, ingest_trickle, query_storm or mixed_dashboard")
	seed := flag.Int64("seed", 42, "workload seed; the server never sees it, only the inputs generated from it")
	seconds := flag.Float64("seconds", 20, "run length the operation counts are scaled to")
	trace := flag.Int("trace", 0, "0: end-to-end run against the real binary; 1: traced in-process run giving the per-layer numbers")
	record := flag.String("record", "", "run every workload (both modes) and write the set of runs to this file")
	seeds := flag.String("seeds", "42", "-record: comma-separated seeds")
	runs := flag.Int("runs", 5, "-record: runs per workload and seed")
	compare := flag.Bool("compare", false, "compare two recorded sets (arguments: a.json b.json) against BENCHMARK.json's bounds")
	flag.Parse()

	// Always kill the child and remove its directories, also on an
	// interrupt; a panic is turned into the same clean-up and re-raised.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAllChildren()
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			killAllChildren()
			panic(p)
		}
	}()

	var err error
	switch {
	case *compare:
		err = compareCmd(flag.Args())
	case *record != "":
		err = recordCmd(*record, *seeds, *runs, *seconds)
	default:
		err = runCmd(*workload, *seed, *seconds, *trace)
	}
	killAllChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne performs one run in either mode.
func runOne(e *env, sp spec, seed int64, seconds float64, trace bool) (*result, error) {
	if trace {
		return runTraced(e, sp, seed, seconds)
	}
	return runEndToEnd(e, sp, seed, seconds)
}

// runCmd is the driver's entry point: one workload, one mode, one JSON
// object as the last line of standard output.
func runCmd(workload string, seed int64, seconds float64, trace int) error {
	sp, ok := specByName(workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want ingest_bulk, ingest_trickle, query_storm or mixed_dashboard)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	e, built, err := newEnv()
	if err != nil {
		return err
	}
	fmt.Printf("built cmd/wfserver in %.2fs\n", built.Seconds())
	res, err := runOne(e, sp, seed, seconds, trace == 1)
	if err != nil {
		return err
	}
	printResult(res)
	name := "result-" + sp.name + ".json"
	if res.Trace {
		name = "result-" + sp.name + "-traced.json"
	}
	if err := writeJSON(filepath.Join(e.outDir, name), res); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit.
func printResult(r *result) {
	mode := "end to end (real binary, tracing off)"
	if r.Trace {
		mode = "traced (in-process replay)"
	}
	m := r.Machine
	fmt.Printf("workload %s  seed %d  seconds %g  mode %s\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Printf("machine: cpus=%d gomaxprocs=%d %s %s; %s; fsync is %s\n", m.CPUs, m.GOMAXPROCS, m.GoVersion, m.OS, m.Placement, m.Fsync)
	fmt.Printf("ops: %s\n", sortedInts(r.Ops))
	if len(r.Samples) > 0 {
		fmt.Printf("samples: %s\n", sortedInts(r.Samples))
	}
	printMetrics("metrics", r.Metrics)
	printMetrics("diagnostics", r.Diagnostics)
	fmt.Printf("ops_attempted %d  ops_failed %d  correct %v  valid %v\n", r.Attempted, r.Failed, r.Correct, r.Valid)
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
}

func printMetrics(title string, ms map[string]metricValue) {
	if len(ms) == 0 {
		return
	}
	fmt.Println(title + ":")
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %s %s\n", n, strconv.FormatFloat(ms[n].Value, 'f', -1, 64), ms[n].Unit)
	}
}

func sortedInts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
