package webfountain

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"webfountain/internal/durable"
	"webfountain/internal/faults"
	"webfountain/internal/serve"
	"webfountain/internal/store"
)

// markerFailWAL fails any WAL append whose payload contains the marker
// — a content-addressed disk fault, so the failing document is chosen
// by the test, not by record framing details.
type markerFailWAL struct {
	durable.File
	marker []byte
}

func (w *markerFailWAL) Write(p []byte) (int, error) {
	if bytes.Contains(p, w.marker) {
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

// TestServingTierIngestPartialFailurePrefix: a mid-batch store fault
// must leave the acked prefix fully served — stored, mined, published —
// while the failed suffix is absent everywhere, and every error along
// the way (the store refusal AND the degraded-store annotate refusals)
// is reported joined rather than first-wins.
func TestServingTierIngestPartialFailurePrefix(t *testing.T) {
	dir := t.TempDir()
	wrap := func(w durable.File) durable.File {
		return &markerFailWAL{File: w, marker: []byte("KABOOM")}
	}
	_, m, tier, _ := durableServingFixture(t, dir, wrap, ServingTierConfig{})

	docs := []serve.Doc{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
		{ID: "d2", Date: "2003-02-10", Text: "The CLIE disappointed every reviewer."},
		{ID: "d3", Date: "2003-03-15", Text: "The KABOOM takes excellent pictures."},
		{ID: "d4", Date: "2003-04-20", Text: "The ZV500 takes excellent pictures."},
	}
	ids, _, err := tier.Ingest(context.Background(), docs)
	if !reflect.DeepEqual(ids, []string{"d1", "d2"}) {
		t.Fatalf("acked ids %v, want the serial prefix [d1 d2]", ids)
	}
	if err == nil {
		t.Fatal("partial ingest reported no error")
	}
	// Satellite regression: the annotate errors must not be swallowed by
	// the ingest error (nor vice versa) — both legs of the join present.
	if msg := err.Error(); !strings.Contains(msg, "ingest d3") {
		t.Errorf("joined error lost the store failure: %v", err)
	} else if !strings.Contains(msg, "serving annotate d1") || !strings.Contains(msg, "serving annotate d2") {
		t.Errorf("joined error lost the annotate refusals: %v", err)
	}

	// Prefix is mined and published; suffix is absent from every surface.
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
		if c := v.Counts(ghost); c.Positive != 0 || c.Negative != 0 {
			t.Errorf("%s leaked into the aggregates: %+v", ghost, c)
		}
		if facts := m.Query(ghost); len(facts) != 0 {
			t.Errorf("%s leaked into the sentiment index: %d facts", ghost, len(facts))
		}
	}
	if len(m.Query("NR70")) != 1 || len(m.Query("CLIE")) != 1 {
		t.Error("prefix facts missing from the sentiment index")
	}
	// The degraded store refused the annotations — recorded as debt.
	if got := sortedSet(tier.pendingAnn); !reflect.DeepEqual(got, []string{"d1", "d2"}) {
		t.Errorf("annotation debt %v, want [d1 d2]", got)
	}
	preFP := v.Fingerprint()

	// Crash (no Close) and recover over a healthy disk: the cold repair
	// re-mines exactly the durable prefix and settles the annotation
	// debt now that the store accepts writes again.
	p2, _, tier2, rec := durableServingFixture(t, dir, nil, ServingTierConfig{})
	if rec.CheckpointLoaded || rec.RepairedDocs != 2 {
		t.Fatalf("recovery %+v, want cold repair of exactly the 2 acked docs", rec)
	}
	if got := tier2.View().Fingerprint(); got != preFP {
		t.Errorf("recovered aggregates diverge from the pre-crash prefix view")
	}
	for _, id := range []string{"d1", "d2"} {
		anns := 0
		if !p2.internalStore().View(id, func(e *store.Entity) { anns = len(e.AnnotationsBy(MinerName)) }) {
			t.Fatalf("acked doc %s missing from the recovered store", id)
		}
		if anns != 1 {
			t.Errorf("%s: %d sentiment annotations after settle, want exactly 1", id, anns)
		}
	}
	if len(tier2.pendingAnn) != 0 {
		t.Errorf("annotation debt not settled: %v", sortedSet(tier2.pendingAnn))
	}
	for _, ghost := range []string{"d3", "d4"} {
		if _, found := p2.Entity(ghost); found {
			t.Errorf("unacked doc %s resurrected by recovery", ghost)
		}
	}
}

// expireAfterCtx reports expiry after its Err budget is spent — the
// deterministic stand-in for a request deadline firing mid-batch.
type expireAfterCtx struct {
	context.Context
	allow int
}

func (c *expireAfterCtx) Err() error {
	if c.allow <= 0 {
		return context.DeadlineExceeded
	}
	c.allow--
	return nil
}

// TestServingTierDeadlineMidBatchDefersMineDebt: a deadline that
// expires mid-batch stops the mining but not the durability — the
// stored suffix becomes mine-debt that the next batch folds in.
func TestServingTierDeadlineMidBatchDefersMineDebt(t *testing.T) {
	p := NewPlatform(PlatformConfig{IngestWorkers: 1})
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewServingTier(p, m, nil)

	docs := []serve.Doc{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
		{ID: "d2", Date: "2003-02-10", Text: "The CLIE disappointed every reviewer."},
		{ID: "d3", Date: "2003-03-15", Text: "The ZV500 takes excellent pictures."},
	}
	// Err budget 2: the pre-flight check and the first doc pass, the
	// deadline fires before the second doc mines.
	ids, _, err := tier.Ingest(&expireAfterCtx{Context: context.Background(), allow: 2}, docs)
	if len(ids) != 3 {
		t.Fatalf("acked %d ids, want all 3 (durability is not deadline-bound)", len(ids))
	}
	if err == nil || !strings.Contains(err.Error(), "mine deferred for 2 of 3") {
		t.Fatalf("error = %v, want a mine-deferred report for the suffix", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deferred error does not unwrap to DeadlineExceeded: %v", err)
	}
	v := tier.View()
	if c := v.Counts("NR70"); c.Positive != 1 {
		t.Errorf("mined prefix missing from aggregates: %+v", c)
	}
	if c := v.Counts("CLIE"); c.Negative != 0 {
		t.Errorf("deferred doc leaked into aggregates: %+v", c)
	}
	if got := append([]string(nil), tier.pendingMine...); !reflect.DeepEqual(got, []string{"d2", "d3"}) {
		t.Fatalf("mine debt %v, want [d2 d3]", got)
	}

	// The next batch drains the debt before its own docs, in one publish.
	genBefore := v.Generation()
	ids, _, err = tier.Ingest(context.Background(), []serve.Doc{
		{ID: "d4", Date: "2003-04-01", Text: "The QX310 takes excellent pictures."},
	})
	if err != nil || len(ids) != 1 {
		t.Fatalf("drain batch: ids=%v err=%v", ids, err)
	}
	v = tier.View()
	if v.Generation() != genBefore+1 {
		t.Errorf("generation %d, want %d (debt rides the batch publish)", v.Generation(), genBefore+1)
	}
	for subject, neg := range map[string]bool{"CLIE": true, "ZV500": false, "QX310": false} {
		c := v.Counts(subject)
		if neg && c.Negative != 1 || !neg && c.Positive != 1 {
			t.Errorf("%s not folded in after drain: %+v", subject, c)
		}
	}
	if len(tier.pendingMine) != 0 {
		t.Errorf("mine debt not drained: %v", tier.pendingMine)
	}
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
