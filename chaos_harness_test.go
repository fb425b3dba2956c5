package webfountain

// The composed-chaos invariant harness: a seeded faults.Schedule drives
// the injector through storms of network and disk faults while a full
// ingest→mine workload runs on top, and the test asserts three
// invariants:
//
//  1. no acknowledged write is ever lost (in memory and through durable
//     crash recovery);
//  2. no call outlives its deadline budget by more than one grace
//     window;
//  3. the mined result set is byte-deterministic per seed — two runs of
//     the same seeded storm produce identical annotations.
//
// The schedule's archetypes deliberately exclude permanent faults, so a
// workload that resends until acknowledged always converges: that is
// what makes invariants 1 and 3 checkable at all. Each invariant runs as its own sequential
// test so metric deltas stay attributable to the scenario that caused
// them.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"webfountain/internal/corpus"
	"webfountain/internal/faults"
	"webfountain/internal/services"
	"webfountain/internal/store"
	"webfountain/internal/vinci"
)

// chaosGrace is the slack a call may run past its deadline budget:
// scheduler noise and an injected delay, far below a hung call.
const chaosGrace = 300 * time.Millisecond

// chaosSeeds are the fixed storms the harness replays; a failure report
// names the seed, and re-running it rebuilds the identical timeline.
var chaosSeeds = []int64{11, 42, 7777}

// chaosCorpus is the review corpus every chaos scenario ingests,
// pre-converted to store entities.
func chaosCorpus() []*store.Entity {
	gen := corpus.DigitalCameraReviews(3, 120)
	ents := make([]*store.Entity, len(gen))
	for i := range gen {
		ents[i] = &store.Entity{
			ID: gen[i].ID, Source: gen[i].Source,
			Title: gen[i].Title, Text: gen[i].Text(),
		}
	}
	return ents
}

// putWithRetry drives one service put to acknowledgement through the
// injector-wrapped client. The schedule never injects permanent faults,
// so a bounded retry loop always converges.
func putWithRetry(t *testing.T, sc services.StoreClient, e *store.Entity) {
	t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		if err := sc.Put(e); err == nil {
			return
		}
	}
	t.Fatalf("put %s: no acknowledgement in 200 attempts", e.ID)
}

// getWithRetry reads one entity back through the faulty client.
func getWithRetry(t *testing.T, sc services.StoreClient, id string) *store.Entity {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 200; attempt++ {
		e, err := sc.Get(id)
		if err == nil {
			return e
		}
		lastErr = err
	}
	t.Fatalf("get %s: no success in 200 attempts (last: %v)", id, lastErr)
	return nil
}

// runChaosScenario executes one full ingest→mine workload under the
// seeded storm and returns a digest of the mined annotations. The storm
// faults the service calls that put and read back the corpus; the miner
// is a deterministic in-process function that the storm cannot reach, so
// every entity must mine without a failure. Along the way it asserts the
// in-memory acked-write invariant.
func runChaosScenario(t *testing.T, seed int64) string {
	t.Helper()
	in := faults.New(faults.Config{Seed: seed})
	sched := faults.NewSchedule(seed, 300*time.Millisecond)
	stop := sched.Start(in)
	defer stop()

	p := NewPlatform(PlatformConfig{})
	reg := vinci.NewRegistry()
	services.RegisterStore(reg, p.internalStore())
	sc := services.StoreClient{C: in.Client(vinci.NewLocalClient(reg))}

	docs := chaosCorpus()
	for _, e := range docs {
		putWithRetry(t, sc, e)
		// Pace the stream so the workload spans several storm phases
		// instead of finishing inside the first.
		time.Sleep(500 * time.Microsecond)
	}

	// Invariant 1 (in memory): every acknowledged put is present, and
	// nothing the workload never wrote appeared.
	st := p.internalStore()
	for _, e := range docs {
		if _, ok := st.Get(e.ID); !ok {
			t.Fatalf("seed %d: acknowledged put %s lost", seed, e.ID)
		}
	}
	if st.Len() != len(docs) {
		t.Fatalf("seed %d: store holds %d entities, acked %d", seed, st.Len(), len(docs))
	}

	// Mine the corpus while the storm keeps running on the service
	// surface.
	sm, err := NewSentimentMiner(MinerConfig{Subjects: []Subject{
		{Canonical: "NR70"}, {Canonical: "battery"}, {Canonical: "CLIE"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	facts, err := sm.Run(p)
	if err != nil {
		t.Fatalf("seed %d: mining under chaos: %v", seed, err)
	}

	// Read everything back through the faulty service surface: the acked
	// corpus must be byte-identical, and the loop keeps the workload
	// running across later schedule phases.
	for _, e := range docs {
		got := getWithRetry(t, sc, e.ID)
		if got.Text != e.Text {
			t.Fatalf("seed %d: entity %s read back different text", seed, e.ID)
		}
	}

	// Invariant 3's digest: entity IDs in sorted order, each with its
	// mined annotations in the order Run wrote them (a pure function of
	// the text, so two runs of any seed must agree byte for byte).
	h := sha256.New()
	ids := st.IDs()
	sort.Strings(ids)
	mined := 0
	for _, id := range ids {
		e, _ := st.Get(id)
		fmt.Fprintf(h, "%s\n", id)
		for _, a := range e.AnnotationsBy(MinerName) {
			fmt.Fprintf(h, "  %s=%s @%d\n", a.Key, a.Value, a.Sentence)
			mined++
		}
	}
	if mined == 0 {
		t.Fatalf("seed %d: chaos run mined no facts; the corpus should produce some", seed)
	}
	if mined != len(facts) {
		t.Fatalf("seed %d: the store carries %d sentiment annotations, Run returned %d facts", seed, mined, len(facts))
	}
	t.Logf("seed %d: %d facts; injected %v", seed, mined, in.Stats())
	return hex.EncodeToString(h.Sum(nil))
}

// TestChaosIngestMineDeterministicPerSeed replays each fixed storm
// twice: the mined result digest must match exactly, under -race, for
// every seed.
func TestChaosIngestMineDeterministicPerSeed(t *testing.T) {
	for _, seed := range chaosSeeds {
		first := runChaosScenario(t, seed)
		second := runChaosScenario(t, seed)
		if first != second {
			t.Errorf("seed %d: two runs of the same storm produced different result digests\n  %s\n  %s",
				seed, first, second)
		}
	}
}

// TestChaosCallsNeverOutliveDeadline: under a storm of drops, delays
// and corruptions, a budgeted call may fail but must always return
// within its budget plus one grace window, and a call that succeeds
// returns its own answer.
func TestChaosCallsNeverOutliveDeadline(t *testing.T) {
	reg := vinci.NewRegistry()
	reg.Register("chaos-echo", func(req vinci.Request) vinci.Response {
		time.Sleep(5 * time.Millisecond)
		return vinci.OKResponse(map[string]string{"op": req.Op})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := vinci.NewServer(reg)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	in := faults.New(faults.Config{Seed: 5})
	stop := faults.NewSchedule(5, 400*time.Millisecond).Start(in)
	defer stop()

	const budget = 120 * time.Millisecond
	c, err := vinci.DialWith(ln.Addr().String(), vinci.DialOptions{
		CallTimeout: budget,
		Dialer:      in.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	successes := 0
	for i := 0; i < 30; i++ {
		op := fmt.Sprintf("op%d", i)
		start := time.Now()
		resp, err := c.Call(vinci.Request{Service: "chaos-echo", Op: op})
		if elapsed := time.Since(start); elapsed > budget+chaosGrace {
			t.Errorf("call %d outlived its deadline: %v against %v budget + %v grace (err=%v)",
				i, elapsed, budget, chaosGrace, err)
		}
		if err == nil {
			if !resp.OK || resp.Fields["op"] != op {
				t.Errorf("call %d answered %+v, want op %s", i, resp, op)
			}
			successes++
		}
	}
	t.Logf("%d of 30 calls answered; injected %v", successes, in.Stats())
	if successes == 0 {
		t.Error("every call failed under survivable chaos rates")
	}
}

// TestChaosDurableAckedWritesSurviveRecovery: with the WAL behind the
// injector and the schedule cycling disk-degraded phases, every put the
// store acknowledged before degrading must survive close and recovery —
// and nothing beyond the one in-flight op may appear.
func TestChaosDurableAckedWritesSurviveRecovery(t *testing.T) {
	for _, seed := range chaosSeeds {
		dir := t.TempDir()
		in := faults.New(faults.Config{Seed: seed})
		stop := faults.NewSchedule(seed, 250*time.Millisecond).Start(in)

		st, err := store.Open(dir, store.Options{Shards: 4, WrapFile: in.File})
		if err != nil {
			stop()
			t.Fatal(err)
		}
		var acked []string
		inFlight := ""
		for i := 0; i < 120; i++ {
			id := fmt.Sprintf("doc-%03d", i)
			err := st.Put(&store.Entity{ID: id, Source: "review", Text: fmt.Sprintf("body of %s", id)})
			if err == nil {
				acked = append(acked, id)
				// Pace the workload so it spans several schedule phases
				// instead of finishing inside the first.
				time.Sleep(time.Millisecond)
				continue
			}
			if !errors.Is(err, store.ErrReadOnly) {
				stop()
				t.Fatalf("seed %d: put %s: unexpected error class: %v", seed, id, err)
			}
			inFlight = id
			break
		}
		st.Close()
		stop()

		rec, err := store.Open(dir, store.Options{Shards: 4})
		if err != nil {
			t.Fatalf("seed %d: recovery open: %v", seed, err)
		}
		for _, id := range acked {
			if _, ok := rec.Get(id); !ok {
				t.Fatalf("seed %d: acknowledged put %s lost (injected %v)", seed, id, in.Stats())
			}
		}
		// The in-flight op whose ack failed may legitimately have reached
		// the disk (sync failure after a complete append); anything else
		// beyond the acked set is data from nowhere.
		want := len(acked)
		if inFlight != "" {
			if _, ok := rec.Get(inFlight); ok {
				want++
			}
		}
		if got := rec.Len(); got != want {
			t.Fatalf("seed %d: recovered %d entities, acked %d, in-flight %q (injected %v)",
				seed, got, len(acked), inFlight, in.Stats())
		}
		rec.Close()
	}
}
