package store_test

// Crash-recovery under the deterministic disk-fault injector: the WAL is
// wrapped with faults.Injector.File, a scripted workload runs until the
// injected torn write or sync failure degrades the store, and recovery
// must restore exactly the acknowledged operations. The test lives in an
// external package because faults imports store.

import (
	"errors"
	"fmt"
	"testing"

	"webfountain/internal/faults"
	"webfountain/internal/store"
)

// runFaultedWorkload puts docs into a durable store in dir whose WAL is
// wrapped by a fresh injector for cfg. It returns the IDs of the puts
// that were acknowledged (nil error) before the store degraded, plus the
// ID of the put whose ack failed, if any: that op is in limbo — a torn
// write destroys it, but a sync failure may leave it fully on disk, so
// recovery may legitimately surface it. The opts' shard count and WAL
// wrapper are overridden; everything else (the sync policy) runs as
// given.
func runFaultedWorkload(t *testing.T, dir string, cfg faults.Config, docs int, opts store.Options) (acked []string, inFlight string, stats faults.Stats) {
	t.Helper()
	in := faults.New(cfg)
	opts.Shards = 4
	opts.WrapFile = in.File
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < docs; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		err := st.Put(&store.Entity{ID: id, Source: "review", Text: fmt.Sprintf("body of %s", id)})
		if err == nil {
			acked = append(acked, id)
			continue
		}
		if !errors.Is(err, store.ErrReadOnly) {
			t.Fatalf("put %s: unexpected error class: %v", id, err)
		}
		inFlight = id
		// First failure flips the store read-only; every later write
		// must be rejected without touching the log.
		for j := i; j < docs; j++ {
			if werr := st.Put(&store.Entity{ID: "late", Text: "x"}); !errors.Is(werr, store.ErrReadOnly) {
				t.Fatalf("write after degradation: %v", werr)
			}
		}
		break
	}
	return acked, inFlight, in.Stats()
}

// TestCrashRecoveryUnderInjectedDiskFaults: across many seeds, a torn
// write or sync failure injected at an arbitrary point must never lose
// an acknowledged put, and recovery must surface exactly the acked set.
func TestCrashRecoveryUnderInjectedDiskFaults(t *testing.T) {
	const docs = 40
	for seed := int64(1); seed <= 25; seed++ {
		cfg := faults.Config{Seed: seed, TornWriteRate: 0.06, SyncFailRate: 0.04}
		dir := t.TempDir()
		acked, inFlight, stats := runFaultedWorkload(t, dir, cfg, docs, store.Options{})

		rec, err := store.Open(dir, store.Options{Shards: 4})
		if err != nil {
			t.Fatalf("seed %d: recovery open: %v", seed, err)
		}
		for _, id := range acked {
			if _, ok := rec.Get(id); !ok {
				t.Fatalf("seed %d: acknowledged put %s lost (injected %v)", seed, id, stats)
			}
		}
		// Everything recovered beyond the acked set must be the one
		// in-flight op whose ack failed (sync failure after a complete
		// WAL append) — never an op the workload was told failed earlier
		// and never data from nowhere.
		want := len(acked)
		if inFlight != "" {
			if _, ok := rec.Get(inFlight); ok {
				want++
			}
		}
		if got := rec.Len(); got != want {
			t.Fatalf("seed %d: recovered %d entities, acked %d, in-flight %q (injected %v)",
				seed, got, len(acked), inFlight, stats)
		}
		if deg, _ := rec.Degraded(); deg {
			t.Fatalf("seed %d: recovered store should be healthy", seed)
		}
		rec.Close()
	}
}

// TestInjectedFaultsAreDeterministic: the same seed must place the same
// faults at the same operations — the property that lets a crash
// scenario replay exactly.
func TestInjectedFaultsAreDeterministic(t *testing.T) {
	cfg := faults.Config{Seed: 7, TornWriteRate: 0.08, SyncFailRate: 0.05}
	ackedA, _, statsA := runFaultedWorkload(t, t.TempDir(), cfg, 40, store.Options{})
	ackedB, _, statsB := runFaultedWorkload(t, t.TempDir(), cfg, 40, store.Options{})
	if len(ackedA) != len(ackedB) {
		t.Fatalf("same seed, different acked counts: %d vs %d", len(ackedA), len(ackedB))
	}
	if statsA != statsB {
		t.Fatalf("same seed, different fault stats: %v vs %v", statsA, statsB)
	}
}
