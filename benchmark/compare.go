package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// recordSet is a set of runs of one build on one machine: the format of
// benchmark/baseline/run-a.json and run-b.json.
type recordSet struct {
	Machine     machine   `json:"machine"`
	ServerFlags []string  `json:"server_flags"`
	Seconds     float64   `json:"seconds"`
	Runs        []*result `json:"runs"`
}

// exactCounts are per-layer counts that must repeat exactly between two
// sets of runs of the same code on the same inputs.
var exactCounts = []string{"store.wal_fsyncs_per_doc", "miner.facts_per_doc", "checkpoint.writes"}

// recordCmd runs every workload on every seed — runs end-to-end runs
// and one traced run each — and writes the set to path.
func recordCmd(path, seeds string, runs int, seconds float64) error {
	var seedList []int64
	for _, f := range strings.Split(seeds, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %v", err)
		}
		seedList = append(seedList, n)
	}
	e, _, err := newEnv()
	if err != nil {
		return err
	}
	set := &recordSet{Machine: thisMachine(), ServerFlags: serverFlags, Seconds: seconds}
	for _, seed := range seedList {
		for _, sp := range specs {
			for i := 0; i <= runs; i++ {
				traced := i == runs
				res, err := runOne(e, sp, seed, seconds, traced)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
				}
				fmt.Printf("%s seed %d run %d traced=%v correct=%v valid=%v failed=%d\n",
					sp.name, seed, i, traced, res.Correct, res.Valid, res.Failed)
				set.Runs = append(set.Runs, res)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeJSON(path, set)
}

// contractMetric is one end_to_end entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
}

func loadContract() (*contract, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func loadSet(path string) (*recordSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s recordSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// cell is the runs of one (workload, seed) in one set.
type cell struct {
	digest string
	e2e    []*result
	traced []*result
}

func (s *recordSet) cells() (map[string]*cell, error) {
	out := map[string]*cell{}
	for _, r := range s.Runs {
		if !r.Correct || !r.Valid || r.Failed != 0 {
			return nil, fmt.Errorf("run %s seed %d is not usable: correct=%v valid=%v failed=%d",
				r.Workload, r.Seed, r.Correct, r.Valid, r.Failed)
		}
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		c := out[key]
		if c == nil {
			c = &cell{digest: r.StreamDigest}
			out[key] = c
		}
		if c.digest != r.StreamDigest {
			return nil, fmt.Errorf("%s: runs within one set were given different inputs", key)
		}
		if r.Trace {
			c.traced = append(c.traced, r)
		} else {
			c.e2e = append(c.e2e, r)
		}
	}
	return out, nil
}

func medianOf(runs []*result, metric string) float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return median(vs)
}

// compareCmd checks set b against set a: every end-to-end metric's
// median, per workload and seed, may be worse by at most its bound from
// BENCHMARK.json. It refuses sets that are not comparable — different
// machine shape, server flags, run length, seeds or generated inputs —
// because a difference between those is not a difference in the code.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two files: a.json b.json")
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	c, err := loadContract()
	if err != nil {
		return err
	}
	switch {
	case a.Machine.CPUs != b.Machine.CPUs || a.Machine.GOMAXPROCS != b.Machine.GOMAXPROCS || a.Machine.Placement != b.Machine.Placement:
		return fmt.Errorf("refusing to compare: machine shapes differ (cpus %d/%d, gomaxprocs %d/%d, placement %q/%q)",
			a.Machine.CPUs, b.Machine.CPUs, a.Machine.GOMAXPROCS, b.Machine.GOMAXPROCS, a.Machine.Placement, b.Machine.Placement)
	case !reflect.DeepEqual(a.ServerFlags, b.ServerFlags):
		return fmt.Errorf("refusing to compare: server flags differ (%v vs %v)", a.ServerFlags, b.ServerFlags)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("refusing to compare: run lengths differ (%g s vs %g s), so operation counts do", a.Seconds, b.Seconds)
	}
	ca, err := a.cells()
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	cb, err := b.cells()
	if err != nil {
		return fmt.Errorf("%s: %w", args[1], err)
	}
	keys := make([]string, 0, len(ca))
	for k := range ca {
		if cb[k] == nil {
			return fmt.Errorf("refusing to compare: %s has %s, %s does not", args[0], k, args[1])
		}
		if ca[k].digest != cb[k].digest {
			return fmt.Errorf("refusing to compare: %s was generated differently in the two sets (seed, operation counts or generator changed)", k)
		}
		keys = append(keys, k)
	}
	if len(cb) != len(ca) {
		return fmt.Errorf("refusing to compare: the sets cover different workloads or seeds")
	}
	sort.Strings(keys)

	fmt.Printf("a: %s   b: %s   cpus=%d gomaxprocs=%d %s   %s   %g s runs\n",
		args[0], args[1], a.Machine.CPUs, a.Machine.GOMAXPROCS, a.Machine.GoVersion, a.Machine.Placement, a.Seconds)
	breaches := 0
	for _, k := range keys {
		fmt.Printf("%s (medians of %d and %d runs)\n", k, len(ca[k].e2e), len(cb[k].e2e))
		for _, m := range c.EndToEnd {
			va, vb := medianOf(ca[k].e2e, m.Name), medianOf(cb[k].e2e, m.Name)
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case worse > m.Bound:
				verdict = "BREACH: b is worse than a by more than the bound"
				breaches++
			case worse < -m.Bound:
				verdict = "differ: b is better than a by more than the bound"
			}
			fmt.Printf("  %-22s a %12.4f  b %12.4f %-6s  b worse by %+6.1f%%  bound %4.1f%%  %s\n",
				m.Name, va, vb, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
		for _, name := range exactCounts {
			if len(ca[k].traced) == 0 || len(cb[k].traced) == 0 {
				continue
			}
			va, vb := ca[k].traced[0].Metrics[name].Value, cb[k].traced[0].Metrics[name].Value
			verdict := "repeats exactly"
			if va != vb {
				verdict = "BREACH: a count that must repeat exactly did not"
				breaches++
			}
			fmt.Printf("  %-26s a %v  b %v  %s\n", name, va, vb, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches", breaches)
	}
	fmt.Println("no breach: every end-to-end metric of b is within its bound of a")
	return nil
}
