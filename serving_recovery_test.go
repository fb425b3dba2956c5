package webfountain

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"webfountain/internal/durable"
	"webfountain/internal/faults"
	"webfountain/internal/serve"
	"webfountain/internal/store"
)

// markerFailWAL fails any WAL append whose payload contains the marker
// — a content-addressed disk fault, so the failing document is chosen
// by the test, not by record framing details. An empty marker is a
// healthy disk.
type markerFailWAL struct {
	durable.File
	marker []byte
}

func (w *markerFailWAL) Write(p []byte) (int, error) {
	if len(w.marker) > 0 && bytes.Contains(p, w.marker) {
		return 0, errors.New("injected disk failure")
	}
	return w.File.Write(p)
}

// durableServingFixture opens a durable single-worker platform over dir
// (optionally with a WAL wrapper) plus a fresh miner and tier config.
func durableServingFixture(t *testing.T, dir string, wrap durable.Wrap, cfg ServingTierConfig) (*Platform, *SentimentMiner, *ServingTier, ServingRecovery) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Shards: 4, WrapFile: wrap})
	if err != nil {
		t.Fatal(err)
	}
	p := platformOver(st, PlatformConfig{IngestWorkers: 1}.normalized())
	p.reindex()
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier, rec, err := RecoverServingTier(p, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, m, tier, rec
}

// TestServingTierIngestPartialFailurePrefix pins the one-step ingest
// contract for every way a batch can be cut before document k: the
// request deadline expires, the store refuses k's put, the store
// refuses k's annotate. In each case Ingest returns ids[:k] and an error
// naming the cause; the prefix is stored, indexed, annotated exactly
// once, mined and published already — no later step exists that would
// finish it — and nothing past k reached the store (single worker),
// the sentiment index or the aggregates. A refused annotate leaves
// document k itself stored but unannotated and outside the watermark,
// which the next boot's repair completes.
func TestServingTierIngestPartialFailurePrefix(t *testing.T) {
	docs := []serve.Doc{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
		{ID: "d2", Date: "2003-02-10", Text: "The CLIE disappointed every reviewer."},
		{ID: "d3", Date: "2003-03-15", Text: "The KABOOM takes excellent pictures."},
		{ID: "d4", Date: "2003-04-20", Text: "The ZV500 takes excellent pictures."},
	}
	for _, c := range []struct {
		name     string
		marker   string // WAL payload that fails its write ("" for a healthy disk)
		ctx      context.Context
		wantErr  string
		stored   []string // what the store holds after the cut
		degraded bool
	}{
		{name: "deadline before d3", ctx: &expireAfterCtx{Context: context.Background(), allow: 2},
			wantErr: "stopped before d3", stored: []string{"d1", "d2"}},
		{name: "put of d3 refused", marker: "KABOOM", ctx: context.Background(),
			wantErr: "ingest d3", stored: []string{"d1", "d2"}, degraded: true},
		{name: "annotate of d3 refused", marker: `<annotate id="d3"`, ctx: context.Background(),
			wantErr: "serving annotate d3", stored: []string{"d1", "d2", "d3"}, degraded: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			wrap := func(w durable.File) durable.File {
				return &markerFailWAL{File: w, marker: []byte(c.marker)}
			}
			p, m, tier, _ := durableServingFixture(t, dir, wrap, ServingTierConfig{})

			ids, _, err := tier.Ingest(c.ctx, docs)
			if !reflect.DeepEqual(ids, []string{"d1", "d2"}) {
				t.Fatalf("acked ids %v, want the serial prefix [d1 d2]", ids)
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want one naming %q", err, c.wantErr)
			}
			if isDeadline := errors.Is(err, context.DeadlineExceeded); isDeadline != (c.marker == "") {
				t.Errorf("errors.Is(err, DeadlineExceeded) = %v for %v", isDeadline, err)
			}
			if deg, _ := p.Degraded(); deg != c.degraded {
				t.Errorf("store degraded = %v, want %v", deg, c.degraded)
			}

			// The prefix is complete now; the suffix is nowhere.
			st := p.internalStore()
			if got := st.IDs(); !sameStrings(got, c.stored) {
				t.Errorf("store holds %v, want %v", got, c.stored)
			}
			for _, id := range []string{"d1", "d2"} {
				if n := sentimentAnnotations(st, id); n != 1 {
					t.Errorf("%s: %d sentiment annotations when Ingest returned, want exactly 1", id, n)
				}
			}
			if n := sentimentAnnotations(st, "d3"); n != 0 {
				t.Errorf("unacked d3 carries %d sentiment annotations", n)
			}
			v := tier.View()
			if v.Generation() != 1 {
				t.Errorf("generation %d, want 1 (one published batch)", v.Generation())
			}
			if c := v.Counts("NR70"); c.Positive != 1 {
				t.Errorf("NR70 counts %+v, want the prefix fact published", c)
			}
			if c := v.Counts("CLIE"); c.Negative != 1 {
				t.Errorf("CLIE counts %+v, want the prefix fact published", c)
			}
			for _, ghost := range []string{"KABOOM", "ZV500"} {
				if c := v.Counts(ghost); c.Total() != 0 {
					t.Errorf("%s leaked into the aggregates: %+v", ghost, c)
				}
				if facts := m.Query(ghost); len(facts) != 0 {
					t.Errorf("%s leaked into the sentiment index: %d facts", ghost, len(facts))
				}
			}
			if len(m.Query("NR70")) != 1 || len(m.Query("CLIE")) != 1 {
				t.Error("prefix facts missing from the sentiment index")
			}
			preFP := v.Fingerprint()

			// Nothing is owed: on a healthy store the next batch publishes
			// its own document and nothing else.
			if !c.degraded {
				ids, _, err := tier.Ingest(context.Background(), []serve.Doc{
					{ID: "d5", Date: "2003-05-01", Text: "The QX310 takes excellent pictures."},
				})
				if err != nil || len(ids) != 1 {
					t.Fatalf("following batch: ids=%v err=%v", ids, err)
				}
				v = tier.View()
				if v.Generation() != 2 || v.Facts() != 3 || v.Counts("QX310").Positive != 1 {
					t.Errorf("following batch: generation %d, %d facts, QX310 %+v; want one publish of one fact",
						v.Generation(), v.Facts(), v.Counts("QX310"))
				}
				return
			}

			// Crash (no Close) and recover over a healthy disk: the cold
			// repair mines exactly what the store holds — annotating d3
			// where only its annotate was refused — and never resurrects
			// a document that was not stored.
			p2, _, tier2, rec := durableServingFixture(t, dir, nil, ServingTierConfig{})
			if rec.CheckpointLoaded || rec.RepairedDocs != len(c.stored) {
				t.Fatalf("recovery %+v, want cold repair of exactly the %d stored docs", rec, len(c.stored))
			}
			if got := tier2.View().Fingerprint(); (got == preFP) != (len(c.stored) == 2) {
				t.Errorf("recovered aggregates vs the pre-crash prefix view: equal = %v with %v stored", got == preFP, c.stored)
			}
			for _, id := range c.stored {
				if n := sentimentAnnotations(p2.internalStore(), id); n != 1 {
					t.Errorf("%s: %d sentiment annotations after recovery, want exactly 1", id, n)
				}
			}
			if _, found := p2.Entity("d4"); found {
				t.Error("unacked doc d4 resurrected by recovery")
			}
		})
	}
}

// sentimentAnnotations counts the sentiment miner's annotations on a
// stored entity (0 when it is absent).
func sentimentAnnotations(st *store.Store, id string) int {
	n := 0
	st.View(id, func(e *store.Entity) { n = len(e.AnnotationsBy(MinerName)) })
	return n
}

// sameStrings reports whether two ID lists hold the same IDs.
func sameStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return reflect.DeepEqual(a, b)
}

// expireAfterCtx reports expiry after its Err budget is spent — the
// deterministic stand-in for a request deadline firing mid-batch. The
// ingest loop asks once per document, from whichever worker claimed it.
type expireAfterCtx struct {
	context.Context
	mu    sync.Mutex
	allow int
}

func (c *expireAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allow <= 0 {
		return context.DeadlineExceeded
	}
	c.allow--
	return nil
}

// TestServingTierCheckpointRestartRoundTrip: a graceful shutdown's
// checkpoint restores the tier byte-identically — same aggregates, same
// sentiment entries, same generation — with zero repair work.
func TestServingTierCheckpointRestartRoundTrip(t *testing.T) {
	dataDir, ckptDir := t.TempDir(), t.TempDir()
	cfg := ServingTierConfig{CheckpointDir: ckptDir, CheckpointEvery: 2}

	p1, m1, tier1, rec := durableServingFixture(t, dataDir, nil, cfg)
	if rec.CheckpointLoaded || rec.RepairedDocs != 0 {
		t.Fatalf("fresh boot recovery %+v, want empty", rec)
	}
	docs := []serve.Doc{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
		{ID: "d2", Date: "2003-02-10", Text: "The CLIE disappointed every reviewer."},
		{ID: "d3", Date: "2003-03-15", Text: "The ZV500 takes excellent pictures. The ZV500 screen is disappointing."},
	}
	for _, d := range docs {
		if _, _, err := tier1.Ingest(context.Background(), []serve.Doc{d}); err != nil {
			t.Fatal(err)
		}
	}
	wantFP, wantGen := tier1.View().Fingerprint(), tier1.View().Generation()
	wantEntries := m1.sidx.All()
	if err := tier1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	_, m2, tier2, rec2 := durableServingFixture(t, dataDir, nil, cfg)
	if !rec2.CheckpointLoaded || rec2.Quarantined != 0 {
		t.Fatalf("restart recovery %+v, want a loaded checkpoint", rec2)
	}
	if rec2.RepairedDocs != 0 {
		t.Errorf("repaired %d docs after a graceful shutdown, want 0", rec2.RepairedDocs)
	}
	if rec2.CheckpointGen != wantGen {
		t.Errorf("checkpoint generation %d, want %d", rec2.CheckpointGen, wantGen)
	}
	v := tier2.View()
	if v.Generation() != wantGen {
		t.Errorf("restored generation %d, want %d", v.Generation(), wantGen)
	}
	if v.Fingerprint() != wantFP {
		t.Error("restored aggregates diverge from the shutdown state")
	}
	if got := m2.sidx.All(); !reflect.DeepEqual(got, wantEntries) {
		t.Errorf("restored sentiment entries diverge: %d vs %d", len(got), len(wantEntries))
	}
	if got := tier2.Entries(context.Background(), "ZV500"); len(got) != 2 {
		t.Errorf("ZV500 entries after restart: %d, want 2", len(got))
	}
}

// TestServingTierCheckpointSyncFailureKeepsPreviousGeneration: an fsync
// failure injected on the checkpoint temp file fails that checkpoint
// without publishing it — the previous generation stays the newest
// loadable one, no temp file is left, the store is not degraded — and
// the tier keeps ingesting and serving, then checkpoints again once the
// disk recovers.
func TestServingTierCheckpointSyncFailureKeepsPreviousGeneration(t *testing.T) {
	dataDir, ckptDir := t.TempDir(), t.TempDir()
	in := faults.New(faults.Config{Seed: 1, SyncFailRate: 1})
	failing := false
	cfg := ServingTierConfig{CheckpointDir: ckptDir, WrapCheckpoint: func(f durable.File) durable.File {
		if failing {
			return in.File(f)
		}
		return f
	}}
	p, _, tier, _ := durableServingFixture(t, dataDir, nil, cfg)
	ingest := func(d serve.Doc) {
		t.Helper()
		if _, _, err := tier.Ingest(context.Background(), []serve.Doc{d}); err != nil {
			t.Fatal(err)
		}
	}
	ingest(serve.Doc{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."})
	if err := tier.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	goodGen := tier.View().Generation()

	failing = true
	ingest(serve.Doc{ID: "d2", Date: "2003-02-10", Text: "The CLIE disappointed every reviewer."})
	if err := tier.Checkpoint(); err == nil {
		t.Fatal("checkpoint through a failing fsync reported success")
	}
	if got := in.Stats().SyncFailures; got != 1 {
		t.Fatalf("%d injected sync failures, want exactly the checkpoint's one", got)
	}
	ck, quarantined, err := serve.LoadCheckpoint(ckptDir)
	if err != nil || quarantined != 0 || ck == nil || ck.View.Generation() != goodGen {
		t.Fatalf("after the failed checkpoint: loaded %v (quarantined %d, err %v), want generation %d", ck, quarantined, err, goodGen)
	}
	assertNoTempFiles(t, ckptDir)
	if deg, reason := p.Degraded(); deg {
		t.Fatalf("a checkpoint fault degraded the store: %s", reason)
	}
	if got := tier.Entries(context.Background(), "CLIE"); len(got) != 1 {
		t.Errorf("CLIE entries while checkpoints fail: %d, want 1", len(got))
	}

	failing = false
	ingest(serve.Doc{ID: "d3", Date: "2003-03-15", Text: "The ZV500 takes excellent pictures."})
	if err := tier.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the disk recovered: %v", err)
	}
	if ck, _, err := serve.LoadCheckpoint(ckptDir); err != nil || ck == nil || ck.View.Generation() != tier.View().Generation() {
		t.Fatalf("newest checkpoint %v (err %v), want the current generation %d", ck, err, tier.View().Generation())
	}
}

// TestServingTierRecoverRepairsBeyondWatermark: documents the store
// acked durably but the tier never published (the crash window between
// Platform.Ingest and the aggregate publish) are repaired forward at
// boot — mined, annotated exactly once, generation strictly past the
// pre-crash value.
func TestServingTierRecoverRepairsBeyondWatermark(t *testing.T) {
	dataDir, ckptDir := t.TempDir(), t.TempDir()
	cfg := ServingTierConfig{CheckpointDir: ckptDir, CheckpointEvery: 1}

	p1, _, tier1, _ := durableServingFixture(t, dataDir, nil, cfg)
	if _, _, err := tier1.Ingest(context.Background(), []serve.Doc{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
	}); err != nil {
		t.Fatal(err)
	}
	preGen := tier1.View().Generation()

	// The crash window: durable acks that never reached the tier.
	if _, err := p1.Ingest([]Document{
		{ID: "x1", Date: "2003-05-01", Text: "The QX310 takes excellent pictures."},
		{ID: "x2", Date: "2003-06-01", Text: "The QX320 disappointed every reviewer."},
	}); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no checkpoint of the new docs.

	p2, _, tier2, rec := durableServingFixture(t, dataDir, nil, cfg)
	if !rec.CheckpointLoaded {
		t.Fatalf("recovery %+v, want the batch checkpoint loaded", rec)
	}
	if rec.RepairedDocs != 2 {
		t.Fatalf("repaired %d docs, want exactly the 2 past the watermark", rec.RepairedDocs)
	}
	v := tier2.View()
	if v.Generation() <= preGen {
		t.Errorf("generation %d did not advance past pre-crash %d", v.Generation(), preGen)
	}
	if c := v.Counts("QX310"); c.Positive != 1 {
		t.Errorf("repaired doc x1 missing from aggregates: %+v", c)
	}
	if c := v.Counts("QX320"); c.Negative != 1 {
		t.Errorf("repaired doc x2 missing from aggregates: %+v", c)
	}
	for _, id := range []string{"d1", "x1", "x2"} {
		anns := 0
		if !p2.internalStore().View(id, func(e *store.Entity) { anns = len(e.AnnotationsBy(MinerName)) }) {
			t.Fatalf("doc %s missing from recovered store", id)
		}
		if anns != 1 {
			t.Errorf("%s: %d annotations, want exactly 1 (repair must not double-annotate)", id, anns)
		}
	}
	fp, gen := v.Fingerprint(), v.Generation()

	// A second crash straight after recovery: the post-repair checkpoint
	// already covers everything, so the next boot repairs nothing and
	// lands on the identical state.
	_, _, tier3, rec3 := durableServingFixture(t, dataDir, nil, cfg)
	if rec3.RepairedDocs != 0 {
		t.Errorf("second recovery repaired %d docs, want 0", rec3.RepairedDocs)
	}
	if got := tier3.View(); got.Fingerprint() != fp || got.Generation() != gen {
		t.Errorf("second recovery diverged: gen %d fp %s, want gen %d fp %s",
			got.Generation(), got.Fingerprint()[:8], gen, fp[:8])
	}
}
