package webfountain

// The serving-tier chaos suite: seeded disk faults and hard kills
// against the crash-recoverable serving tier. Three archetypes cover
// the crash windows the checkpoint/repair design closes:
//
//   - kill mid-ingest-batch — a WAL fault degrades the store inside a
//     batch, the process dies with durably-acked documents never
//     published to the aggregates;
//   - kill mid-checkpoint-write — the checkpoint temp file is torn by
//     the injector, the process dies, the previous generation must
//     still stand;
//   - checkpoint bit rot — the newest published checkpoint is
//     corrupted on disk, the loader must quarantine it and fall back.
//
// Every archetype asserts the serving resilience invariants after a
// kill + restart:
//
//  1. recovered aggregates are byte-identical to an offline full
//     re-mine of the recovered store (View.Fingerprint and the full
//     sentiment-index dump);
//  2. no acknowledged ingest is lost — every id the tier (or the
//     platform) acked reads back from the recovered store, with its
//     sentiment annotation written exactly once;
//  3. the cache-invalidation generation never regresses across the
//     restart — a cached client can't see time move backwards;
//  4. recovery is byte-deterministic per seed — two runs of one
//     scenario end on identical fingerprints, generations and repair
//     counts.
//
// Faults come from the same seeded injector the store's crash suite
// uses, and the WAL is appended serially (single ingest worker), so a
// scenario replays byte-for-byte under a fixed seed. When
// CHAOS_INVARIANT_LOG names a file, every invariant checkpoint is
// appended to it — CI uploads that file as the run's artifact.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"webfountain/internal/durable"
	"webfountain/internal/faults"
	"webfountain/internal/serve"
	"webfountain/internal/store"
)

// servingChaos owns one durable serving deployment plus the record of
// everything the run acknowledged.
type servingChaos struct {
	t       *testing.T
	dataDir string
	ckptDir string

	p    *Platform
	m    *SentimentMiner
	tier *ServingTier
	rec  ServingRecovery

	rng     *rand.Rand
	nextDoc int
	acked   []string // every tier- or platform-acked doc id, in order
	lastGen uint64   // highest generation ever observed pre-crash
}

func newServingChaos(t *testing.T, seed int64) *servingChaos {
	t.Helper()
	base := t.TempDir()
	return &servingChaos{
		t:       t,
		dataDir: filepath.Join(base, "data"),
		ckptDir: filepath.Join(base, "ckpt"),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// open boots (or re-boots) the durable platform + miner + tier over
// the harness directories. wrapWAL and wrapCkpt install the injected
// disk faults; nil means a healthy disk.
func (sc *servingChaos) open(wrapWAL durable.Wrap, cfg ServingTierConfig) {
	sc.t.Helper()
	st, err := store.Open(sc.dataDir, store.Options{Shards: 4, WrapFile: wrapWAL})
	if err != nil {
		sc.t.Fatal(err)
	}
	p := platformOver(st, PlatformConfig{IngestWorkers: 1}.normalized())
	p.reindex()
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		sc.t.Fatal(err)
	}
	cfg.CheckpointDir = sc.ckptDir
	tier, rec, err := RecoverServingTier(p, m, cfg)
	if err != nil {
		sc.t.Fatal(err)
	}
	sc.p, sc.m, sc.tier, sc.rec = p, m, tier, rec
	if g := tier.View().Generation(); g > sc.lastGen {
		sc.lastGen = g
	}
}

// crash abandons the running deployment without Close — no final
// checkpoint, no WAL flush beyond what each ack already synced.
func (sc *servingChaos) crash() { sc.p, sc.m, sc.tier = nil, nil, nil }

// nextDocs draws the next n documents from the seeded generator: one
// subject and one unambiguous sentiment sentence each, so every stored
// document contributes exactly one fact and one annotation.
func (sc *servingChaos) nextDocs(n int) []serve.Doc {
	docs := make([]serve.Doc, n)
	for i := range docs {
		subject := fmt.Sprintf("KX%03d", sc.rng.Intn(400))
		text := fmt.Sprintf("The %s takes excellent pictures.", subject)
		if sc.rng.Intn(2) == 1 {
			text = fmt.Sprintf("The %s disappointed every reviewer.", subject)
		}
		docs[i] = serve.Doc{
			ID:   fmt.Sprintf("doc-%04d", sc.nextDoc),
			Date: fmt.Sprintf("2003-%02d-%02d", 1+sc.rng.Intn(12), 1+sc.rng.Intn(28)),
			Text: text,
		}
		sc.nextDoc++
	}
	return docs
}

// ingestBatches drives the tier's online write path, recording every
// acked id and asserting the generation never regresses mid-run.
func (sc *servingChaos) ingestBatches(batches, size int) {
	sc.t.Helper()
	for b := 0; b < batches; b++ {
		ids, _, _ := sc.tier.Ingest(context.Background(), sc.nextDocs(size))
		sc.acked = append(sc.acked, ids...)
		if g := sc.tier.View().Generation(); g < sc.lastGen {
			sc.t.Fatalf("generation regressed mid-run: %d -> %d", sc.lastGen, g)
		} else {
			sc.lastGen = g
		}
	}
}

// directIngest stores documents through the platform only — the
// durable ack that never reaches the tier, i.e. the crash window
// between Platform.Ingest and the aggregate publish.
func (sc *servingChaos) directIngest(n int) {
	sc.t.Helper()
	docs := sc.nextDocs(n)
	batch := make([]Document, len(docs))
	for i, d := range docs {
		batch[i] = Document{ID: d.ID, Date: d.Date, Text: d.Text}
	}
	ids, _ := sc.p.Ingest(batch)
	sc.acked = append(sc.acked, ids...)
}

// offlineRemine rebuilds the ground truth from scratch: every document
// the recovered store holds, ingested into a fresh in-memory platform
// and mined by a cold batch run. Returns the aggregate fingerprint and
// the sentiment-index digest the recovered tier must match.
func offlineRemine(t *testing.T, st *store.Store) (string, string) {
	t.Helper()
	var docs []Document
	st.ForEach(func(e *store.Entity) error {
		docs = append(docs, Document{
			ID: e.ID, Source: e.Source, Title: e.Title, Date: e.Date, Text: e.Text,
		})
		return nil
	})
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	p := NewPlatform(PlatformConfig{})
	if _, err := p.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	facts, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	tier := NewServingTier(p, m, facts)
	return tier.View().Fingerprint(), sidxDigest(m)
}

// sidxDigest hashes the full deterministic sentiment-index dump.
func sidxDigest(m *SentimentMiner) string {
	h := sha256.New()
	for _, e := range m.sidx.All() {
		fmt.Fprintf(h, "%s|%d|%s|%d|%s|%s\n", e.DocID, e.Sentence, e.Subject, e.Polarity, e.Snippet, e.Feature)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyRecovered checks invariants 1–3 against the freshly recovered
// deployment and returns the run's determinism digest (invariant 4).
func (sc *servingChaos) verifyRecovered(logf func(string, ...any), scenario string, seed int64) string {
	sc.t.Helper()
	st := sc.p.internalStore()

	// Invariant 2: every acked document is durable, served, and
	// annotated exactly once (repair must never double-annotate).
	for _, id := range sc.acked {
		anns := 0
		if !st.View(id, func(e *store.Entity) { anns = len(e.AnnotationsBy(MinerName)) }) {
			sc.t.Fatalf("%s/seed=%d: acked doc %s lost across the kill", scenario, seed, id)
		}
		if anns != 1 {
			sc.t.Fatalf("%s/seed=%d: doc %s has %d sentiment annotations, want exactly 1", scenario, seed, id, anns)
		}
	}
	logf("%s seed=%d: all %d acked docs durable and single-annotated", scenario, seed, len(sc.acked))

	// Invariant 1: recovered aggregates == offline full re-mine.
	wantFP, wantSidx := offlineRemine(sc.t, st)
	gotFP := sc.tier.View().Fingerprint()
	if gotFP != wantFP {
		sc.t.Fatalf("%s/seed=%d: recovered aggregates diverge from offline re-mine\n got %s\nwant %s",
			scenario, seed, gotFP, wantFP)
	}
	if got := sidxDigest(sc.m); got != wantSidx {
		sc.t.Fatalf("%s/seed=%d: recovered sentiment index diverges from offline re-mine", scenario, seed)
	}
	logf("%s seed=%d: fingerprint %s matches offline re-mine", scenario, seed, gotFP[:12])

	// Invariant 3: the generation survived the restart monotonically.
	gen := sc.tier.View().Generation()
	if gen < sc.lastGen {
		sc.t.Fatalf("%s/seed=%d: generation regressed across restart: %d -> %d", scenario, seed, sc.lastGen, gen)
	}
	logf("%s seed=%d: generation %d >= pre-crash %d (repaired=%d quarantined=%d)",
		scenario, seed, gen, sc.lastGen, sc.rec.RepairedDocs, sc.rec.Quarantined)

	return fmt.Sprintf("fp=%s sidx=%s gen=%d acked=%d repaired=%d quarantined=%d",
		gotFP, sidxDigest(sc.m), gen, len(sc.acked), sc.rec.RepairedDocs, sc.rec.Quarantined)
}

// runTwiceDeterministic runs one scenario twice per seed and asserts
// identical digests — invariant 4.
func runTwiceDeterministic(t *testing.T, scenario string, run func(t *testing.T, seed int64) string) {
	t.Helper()
	logf := chaosInvariantLog(t)
	for _, seed := range chaosSeeds {
		a := run(t, seed)
		b := run(t, seed)
		if a != b {
			t.Fatalf("%s/seed=%d: nondeterministic recovery\nrun1 %s\nrun2 %s", scenario, seed, a, b)
		}
		logf("%s seed=%d: two runs byte-identical: %s", scenario, seed, a)
	}
}

// TestChaosServingKillMidIngestBatch: WAL faults degrade the store
// inside ingest batches, documents land durably that the tier never
// published, and the process is killed without a final checkpoint.
// Recovery must repair exactly the unpublished tail.
func TestChaosServingKillMidIngestBatch(t *testing.T) {
	runTwiceDeterministic(t, "kill-mid-ingest", func(t *testing.T, seed int64) string {
		logf := chaosInvariantLog(t)
		sc := newServingChaos(t, seed)
		in := faults.New(faults.Config{Seed: seed, TornWriteRate: 0.04, SyncFailRate: 0.03})
		wrap := in.File

		sc.open(wrap, ServingTierConfig{CheckpointEvery: 2})
		sc.ingestBatches(10, 3)
		if deg, reason := sc.p.Degraded(); deg {
			logf("kill-mid-ingest seed=%d: store degraded mid-run (%s), %d docs acked", seed, reason, len(sc.acked))
		} else {
			// The disk stayed healthy this seed; open the crash window
			// explicitly with a durable ack the tier never sees.
			sc.directIngest(2)
		}
		sc.crash()

		sc.open(nil, ServingTierConfig{CheckpointEvery: 2})
		return sc.verifyRecovered(logf, "kill-mid-ingest", seed)
	})
}

// TestChaosServingKillMidCheckpointWrite: the checkpoint temp file is
// torn by the injector, so checkpoint attempts fail mid-write; the
// previous published generation must keep standing and recovery must
// repair from it — never from a torn file.
func TestChaosServingKillMidCheckpointWrite(t *testing.T) {
	runTwiceDeterministic(t, "kill-mid-checkpoint", func(t *testing.T, seed int64) string {
		logf := chaosInvariantLog(t)
		sc := newServingChaos(t, seed)
		in := faults.New(faults.Config{Seed: seed, TornWriteRate: 0.5})

		sc.open(nil, ServingTierConfig{CheckpointEvery: 1, WrapCheckpoint: in.File})
		sc.ingestBatches(10, 2)
		sc.directIngest(2)
		sc.crash()
		if torn := in.Stats().TornWrites; torn == 0 {
			t.Fatalf("seed=%d: no checkpoint write was torn; the scenario exercised nothing", seed)
		} else {
			logf("kill-mid-checkpoint seed=%d: %d checkpoint writes torn", seed, torn)
		}

		sc.open(nil, ServingTierConfig{CheckpointEvery: 1})
		if sc.rec.Quarantined != 0 {
			t.Fatalf("seed=%d: %d checkpoints quarantined — a torn write reached a published name", seed, sc.rec.Quarantined)
		}
		assertNoTempFiles(t, sc.ckptDir)
		return sc.verifyRecovered(logf, "kill-mid-checkpoint", seed)
	})
}

// TestChaosServingCheckpointBitRot: the newest published checkpoint is
// silently corrupted on disk and a stray temp file is planted; the
// loader must quarantine the rotten file, delete the stray, fall back
// a generation and repair the difference.
func TestChaosServingCheckpointBitRot(t *testing.T) {
	runTwiceDeterministic(t, "checkpoint-bit-rot", func(t *testing.T, seed int64) string {
		logf := chaosInvariantLog(t)
		sc := newServingChaos(t, seed)

		sc.open(nil, ServingTierConfig{CheckpointEvery: 1})
		sc.ingestBatches(6, 2)
		sc.directIngest(2)
		sc.crash()

		// Bit-rot the newest checkpoint at a seeded offset and plant the
		// debris of a crash mid-write.
		newest := newestCheckpointPath(t, sc.ckptDir)
		data, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		data[8+sc.rng.Intn(len(data)-8)] ^= 0x20
		if err := os.WriteFile(newest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stray := filepath.Join(sc.ckptDir, "checkpoint-9999.tmp")
		if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}

		sc.open(nil, ServingTierConfig{CheckpointEvery: 1})
		if sc.rec.Quarantined != 1 {
			t.Fatalf("seed=%d: quarantined %d checkpoints, want exactly the rotten one", seed, sc.rec.Quarantined)
		}
		if !sc.rec.CheckpointLoaded {
			t.Fatalf("seed=%d: no fallback checkpoint loaded after quarantine", seed)
		}
		if _, err := os.Stat(newest + ".corrupt"); err != nil {
			t.Fatalf("seed=%d: rotten checkpoint not quarantined: %v", seed, err)
		}
		if _, err := os.Stat(stray); !os.IsNotExist(err) {
			t.Fatalf("seed=%d: stray temp file survived recovery", seed)
		}
		logf("checkpoint-bit-rot seed=%d: rotten file quarantined, fell back to gen %d", seed, sc.rec.CheckpointGen)
		return sc.verifyRecovered(logf, "checkpoint-bit-rot", seed)
	})
}

// newestCheckpointPath returns the highest-generation checkpoint file.
func newestCheckpointPath(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "checkpoint-") && strings.HasSuffix(de.Name(), ".ck") {
			if newest == "" || de.Name() > newest {
				newest = de.Name()
			}
		}
	}
	if newest == "" {
		t.Fatal("no checkpoint files on disk")
	}
	return filepath.Join(dir, newest)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("temp file %s survived recovery", de.Name())
		}
	}
}
