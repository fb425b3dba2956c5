package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"webfountain/internal/store"
)

func seededStore(n, shards int) *store.Store {
	st := store.New(shards)
	for i := 0; i < n; i++ {
		st.Put(&store.Entity{ID: fmt.Sprintf("doc%03d", i), Text: fmt.Sprintf("text %d", i)})
	}
	return st
}

func TestRunEntityMinerAnnotatesEverything(t *testing.T) {
	st := seededStore(50, 4)
	c := New(st)
	m := MinerFunc{MinerName: "marker", Fn: func(e *store.Entity) ([]store.Annotation, error) {
		return []store.Annotation{{Type: "seen", Key: e.ID}}, nil
	}}
	stats, err := c.RunEntityMiner(m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entities != 50 || stats.Annotations != 50 || stats.Failures != 0 {
		t.Errorf("stats = %+v", stats)
	}
	count := 0
	st.ForEach(func(e *store.Entity) error {
		anns := e.AnnotationsBy("marker")
		if len(anns) != 1 || anns[0].Key != e.ID {
			t.Errorf("entity %s annotations = %+v", e.ID, anns)
		}
		count++
		return nil
	})
	if count != 50 {
		t.Errorf("visited %d entities", count)
	}
}

func TestRunEntityMinerParallelism(t *testing.T) {
	st := seededStore(64, 16)
	c := New(st)
	var concurrent, peak int64
	m := MinerFunc{MinerName: "p", Fn: func(e *store.Entity) ([]store.Annotation, error) {
		cur := atomic.AddInt64(&concurrent, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		atomic.AddInt64(&concurrent, -1)
		return nil, nil
	}}
	if _, err := c.RunEntityMiner(m); err != nil {
		t.Fatal(err)
	}
	// Not a strict guarantee, but with 16 shards and 8 workers we expect
	// at least some overlap on any multicore machine; tolerate 1 to stay
	// robust on single-core CI.
	if peak < 1 {
		t.Errorf("peak concurrency = %d", peak)
	}
}

// transientErr carries Temporary() == true, the mark a retry layer
// would act on.
type transientErr struct{ id string }

func (e *transientErr) Error() string   { return "transient failure on " + e.id }
func (e *transientErr) Temporary() bool { return true }

// TestRunEntityMinerCollectsFailures: failed entities are counted and
// reported, the run continues past them, and no failure is retried,
// whatever its class.
func TestRunEntityMinerCollectsFailures(t *testing.T) {
	st := seededStore(20, 2)
	c := New(st)
	var calls atomic.Int64
	m := MinerFunc{MinerName: "flaky", Fn: func(e *store.Entity) ([]store.Annotation, error) {
		calls.Add(1)
		switch e.ID {
		case "doc005":
			return nil, fmt.Errorf("boom on %s", e.ID)
		case "doc015":
			return nil, &transientErr{id: e.ID}
		}
		return []store.Annotation{{Type: "ok"}}, nil
	}}
	stats, err := c.RunEntityMiner(m)
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if stats.Failures != 2 { // doc005, doc015
		t.Errorf("failures = %d", stats.Failures)
	}
	if stats.Entities != 20 {
		t.Errorf("entities = %d (run should continue past failures)", stats.Entities)
	}
	if n := calls.Load(); n != 20 {
		t.Errorf("Process ran %d times over 20 entities; a failure must not be retried", n)
	}
	if !strings.Contains(err.Error(), "doc005") || !strings.Contains(err.Error(), "transient failure on doc015") {
		t.Errorf("error detail missing: %v", err)
	}
}

// TestPanicRecoveryCountsAndContinues: a panicking miner is recovered,
// counted, and the deployment finishes the remaining entities.
func TestPanicRecoveryCountsAndContinues(t *testing.T) {
	st := seededStore(20, 2)
	c := New(st)
	m := MinerFunc{MinerName: "panicky", Fn: func(e *store.Entity) ([]store.Annotation, error) {
		if strings.HasSuffix(e.ID, "7") {
			panic("miner bug on " + e.ID)
		}
		return []store.Annotation{{Type: "ok"}}, nil
	}}
	stats, err := c.RunEntityMiner(m)
	if err == nil || !strings.Contains(err.Error(), "miner panicked") {
		t.Fatalf("err = %v", err)
	}
	if stats.Entities != 20 {
		t.Errorf("entities = %d (run should continue past panics)", stats.Entities)
	}
	if stats.Panics != 2 || stats.Failures != 2 { // doc007, doc017
		t.Errorf("stats = %+v", stats)
	}
}

func TestRunPipelineOrdersEntityThenCorpus(t *testing.T) {
	st := seededStore(10, 2)
	c := New(st)
	var order []string
	em := MinerFunc{MinerName: "e1", Fn: func(e *store.Entity) ([]store.Annotation, error) {
		return []store.Annotation{{Type: "t"}}, nil
	}}
	cm := CorpusFunc{MinerName: "c1", Fn: func(s *store.Store) error {
		// Entity annotations must be visible by the time the corpus miner
		// runs.
		return s.ForEach(func(e *store.Entity) error {
			if len(e.AnnotationsBy("e1")) != 1 {
				return fmt.Errorf("corpus miner ran before entity miner finished")
			}
			order = append(order, e.ID)
			return nil
		})
	}}
	stats, err := c.RunPipeline([]EntityMiner{em}, []CorpusMiner{cm})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Miner != "e1" || stats[1].Miner != "c1" {
		t.Errorf("stats = %+v", stats)
	}
	if len(order) != 10 {
		t.Errorf("corpus miner saw %d entities", len(order))
	}
}

func TestRunPipelineCorpusErrorStops(t *testing.T) {
	st := seededStore(5, 1)
	c := New(st)
	ran := false
	cm1 := CorpusFunc{MinerName: "bad", Fn: func(*store.Store) error { return fmt.Errorf("nope") }}
	cm2 := CorpusFunc{MinerName: "after", Fn: func(*store.Store) error { ran = true; return nil }}
	_, err := c.RunPipeline(nil, []CorpusMiner{cm1, cm2})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v", err)
	}
	if ran {
		t.Error("pipeline continued after corpus error")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Miner: "m", Entities: 3, Annotations: 2, Failures: 1}
	if got := s.String(); !strings.Contains(got, "m: 3 entities, 2 annotations, 1 failures") {
		t.Errorf("String = %q", got)
	}
}

func TestWorkerDefaulting(t *testing.T) {
	st := seededStore(4, 32)
	c := New(st)
	if c.workers != 8 {
		t.Errorf("workers = %d, want capped 8", c.workers)
	}
	c2 := New(store.New(2))
	if c2.workers != 2 {
		t.Errorf("workers = %d, want 2", c2.workers)
	}
}
