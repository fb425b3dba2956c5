package webfountain

// The serving-tier chaos suite: seeded disk faults and hard kills
// against the serving tier, whose only durable state is the store's
// write-ahead log. Three archetypes cover the crash windows of the
// analyze-then-commit ingest:
//
//   - kill mid-ingest-batch — a WAL fault degrades the store inside a
//     batch's commit, and the process dies with documents on disk that
//     were never acked or published to the aggregates;
//   - kill between put and annotate — a batch's commit is torn inside a
//     document's annotate record and the process dies: nothing of the
//     batch was acked, the documents before it come back folded, and it
//     comes back stored un-annotated, mined and annotated exactly once
//     at boot;
//   - annotate-record bit rot — a committed annotate record is corrupted
//     on disk: the WAL quarantines it and the document is mined again.
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
//  4. recovery is deterministic per seed — two runs of one scenario end
//     on identical fingerprints, sentiment-index dumps, generations and
//     fold/repair counts — and the tier wrote no file of its own.
//
// Faults come from the same seeded injector the store's crash suite
// uses, and the WAL is appended serially (single ingest worker), so a
// scenario replays byte-for-byte under a fixed seed. When
// CHAOS_INVARIANT_LOG names a file, every invariant checkpoint is
// appended to it — CI uploads that file as the run's artifact.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
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

// chaosInvariantLog returns a logger that mirrors checkpoints to the
// CHAOS_INVARIANT_LOG file when CI sets it.
func chaosInvariantLog(t *testing.T) func(format string, args ...any) {
	t.Helper()
	var f *os.File
	if path := os.Getenv("CHAOS_INVARIANT_LOG"); path != "" {
		var err error
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatalf("open invariant log: %v", err)
		}
		t.Cleanup(func() { f.Close() })
	}
	return func(format string, args ...any) {
		t.Logf(format, args...)
		if f != nil {
			fmt.Fprintf(f, format+"\n", args...)
		}
	}
}

// servingChaos owns one durable serving deployment plus the record of
// everything the run acknowledged.
type servingChaos struct {
	t       *testing.T
	dataDir string
	ckptDir string

	p    *Platform
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
// the harness directories. wrapWAL installs the injected disk faults;
// nil means a healthy disk.
func (sc *servingChaos) open(wrapWAL durable.Wrap, cfg ServingTierConfig) {
	sc.t.Helper()
	st, err := store.Open(sc.dataDir, store.Options{Shards: 4, WrapFile: wrapWAL})
	if err != nil {
		sc.t.Fatal(err)
	}
	p := platformOver(st, PlatformConfig{IngestWorkers: 1}.normalized())
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		sc.t.Fatal(err)
	}
	cfg.CheckpointDir = sc.ckptDir
	tier, rec, err := RecoverServingTier(p, m, cfg)
	if err != nil {
		sc.t.Fatal(err)
	}
	sc.p, sc.tier, sc.rec = p, tier, rec
	if g := tier.View().Generation(); g > sc.lastGen {
		sc.lastGen = g
	}
}

// crash abandons the running deployment without Close — no WAL flush
// beyond what each ack already synced.
func (sc *servingChaos) crash() { sc.p, sc.tier = nil, nil }

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
// and mined by a cold batch run. Returns the re-mined View the recovered
// tier must match.
func offlineRemine(t *testing.T, st *store.Store) *serve.View {
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
	return NewServingTier(p, m, facts).View()
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
	want := offlineRemine(sc.t, st)
	gotFP, dump := sc.tier.View().Fingerprint(), entryDump(sc.tier.View())
	if gotFP != want.Fingerprint() {
		sc.t.Fatalf("%s/seed=%d: recovered aggregates diverge from offline re-mine\n got %s\nwant %s",
			scenario, seed, gotFP, want.Fingerprint())
	}
	if dump != entryDump(want) {
		sc.t.Fatalf("%s/seed=%d: recovered entries diverge from offline re-mine", scenario, seed)
	}
	logf("%s seed=%d: fingerprint %s matches offline re-mine", scenario, seed, gotFP[:12])

	// Invariant 3: the generation survived the restart monotonically.
	gen := sc.tier.View().Generation()
	if gen < sc.lastGen {
		sc.t.Fatalf("%s/seed=%d: generation regressed across restart: %d -> %d", scenario, seed, sc.lastGen, gen)
	}
	quarantined := st.Durability().Quarantined
	logf("%s seed=%d: generation %d >= pre-crash %d (folded=%d repaired=%d quarantined=%d)",
		scenario, seed, gen, sc.lastGen, sc.rec.FoldedDocs, sc.rec.RepairedDocs, quarantined)

	// Invariant 4's other half: the store is the only durable copy.
	assertNoRegularFile(sc.t, sc.ckptDir)

	return fmt.Sprintf("fp=%s entries=%x gen=%d acked=%d folded=%d repaired=%d quarantined=%d",
		gotFP, sha256.Sum256([]byte(dump)), gen, len(sc.acked), sc.rec.FoldedDocs, sc.rec.RepairedDocs, quarantined)
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
// published, and the process is killed. Recovery must serve exactly what
// the store holds.
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

// TestChaosServingKillBetweenPutAndAnnotate: the process dies while a
// batch's one commit is being appended, torn just inside one document's
// annotate record — the records before the tear are on disk, the put
// before it included, and nothing of the batch was acked or applied.
// Recovery folds the batch's earlier documents (unacked, but on disk
// with their annotate records), mines and annotates the victim exactly
// once, never sees the documents after it, and the boot after that
// folds the victim like every other document.
func TestChaosServingKillBetweenPutAndAnnotate(t *testing.T) {
	runTwiceDeterministic(t, "kill-between-put-and-annotate", func(t *testing.T, seed int64) string {
		logf := chaosInvariantLog(t)
		sc := newServingChaos(t, seed)
		var wal *markerFailWAL
		sc.open(func(f durable.File) durable.File {
			wal = &markerFailWAL{File: f, tear: true}
			return wal
		}, ServingTierConfig{})
		sc.ingestBatches(6, 2)

		batch := sc.nextDocs(4)
		v := sc.rng.Intn(len(batch))
		victim := batch[v].ID
		wal.arm(store.RecordPrefix(true, victim))
		ids, _, err := sc.tier.Ingest(context.Background(), batch)
		wal.disarm(t)
		if len(ids) != 0 || err == nil || !strings.Contains(err.Error(), "ingest commit of "+batch[0].ID) {
			t.Fatalf("seed=%d: batch with %s's annotate record torn: acked %v, err = %v", seed, victim, ids, err)
		}
		if n := sc.p.NumEntities(); n != len(sc.acked) {
			t.Fatalf("seed=%d: the torn commit applied %d documents", seed, n-len(sc.acked))
		}
		sc.crash()

		sc.open(nil, ServingTierConfig{})
		st := sc.p.internalStore()
		if torn := st.Durability().TruncatedBytes; torn == 0 {
			t.Fatalf("seed=%d: no torn tail was truncated; the scenario exercised nothing", seed)
		}
		if sc.rec.RepairedDocs != 1 || sc.rec.FoldedDocs != len(sc.acked)+v {
			t.Fatalf("seed=%d: recovery %+v, want the %d acked and %d earlier batch documents folded and only %s mined",
				seed, sc.rec, len(sc.acked), v, victim)
		}
		for _, d := range batch[v+1:] {
			if _, found := sc.p.Entity(d.ID); found {
				t.Fatalf("seed=%d: %s, past the tear, recovered", seed, d.ID)
			}
		}
		if n := sentimentAnnotations(st, victim); n != 1 {
			t.Fatalf("seed=%d: %s carries %d sentiment annotations after the repair, want exactly 1", seed, victim, n)
		}
		logf("kill-between-put-and-annotate seed=%d: commit torn at %s's annotate record; %d earlier documents folded, %s mined and annotated at boot",
			seed, victim, v, victim)
		digest := sc.verifyRecovered(logf, "kill-between-put-and-annotate", seed)

		// The repair's own annotate record is durable: a second kill and
		// boot mines nothing and changes nothing.
		fp, gen, dump := sc.tier.View().Fingerprint(), sc.tier.View().Generation(), entryDump(sc.tier.View())
		sc.crash()
		sc.open(nil, ServingTierConfig{})
		if sc.rec.RepairedDocs != 0 || sentimentAnnotations(sc.p.internalStore(), victim) != 1 ||
			sc.tier.View().Fingerprint() != fp || sc.tier.View().Generation() != gen || entryDump(sc.tier.View()) != dump {
			t.Fatalf("seed=%d: second recovery %+v diverged from the first", seed, sc.rec)
		}
		return digest
	})
}

// TestChaosServingAnnotateRecordBitRot: a committed annotate record rots
// on disk. The WAL's payload checksum catches it, the record is
// quarantined, and the document — stored, now un-annotated — is mined
// again at boot; the fingerprint still equals the offline mine.
func TestChaosServingAnnotateRecordBitRot(t *testing.T) {
	runTwiceDeterministic(t, "annotate-bit-rot", func(t *testing.T, seed int64) string {
		logf := chaosInvariantLog(t)
		sc := newServingChaos(t, seed)

		sc.open(nil, ServingTierConfig{})
		sc.ingestBatches(6, 2)
		sc.directIngest(2)
		victim := sc.acked[sc.rng.Intn(12)] // one of the tier-acked, annotated documents
		sc.crash()

		wals, err := filepath.Glob(filepath.Join(sc.dataDir, "wal-*"))
		if err != nil || len(wals) != 1 {
			t.Fatalf("seed=%d: WAL files %v (err %v), want one", seed, wals, err)
		}
		data, err := os.ReadFile(wals[0])
		if err != nil {
			t.Fatal(err)
		}
		// The record's payload starts at the prefix, behind the frame's
		// 12-byte header whose first word is the payload length; rot a
		// byte within the payload.
		at := bytes.Index(data, store.RecordPrefix(true, victim))
		if at < 12 {
			t.Fatalf("seed=%d: no annotate record for %s in the WAL", seed, victim)
		}
		payload := int(binary.LittleEndian.Uint32(data[at-12:]))
		data[at+sc.rng.Intn(min(40, payload))] ^= 0x20
		if err := os.WriteFile(wals[0], data, 0o644); err != nil {
			t.Fatal(err)
		}

		sc.open(nil, ServingTierConfig{})
		st := sc.p.internalStore()
		if q := st.Durability().Quarantined; q != 1 {
			t.Fatalf("seed=%d: the WAL quarantined %d records, want exactly the rotten one", seed, q)
		}
		// The victim and the two platform-only documents are mined.
		if sc.rec.RepairedDocs != 3 || sc.rec.FoldedDocs != 11 {
			t.Fatalf("seed=%d: recovery %+v, want 11 folded and 3 mined", seed, sc.rec)
		}
		logf("annotate-bit-rot seed=%d: %s's annotate record quarantined, document mined again", seed, victim)
		return sc.verifyRecovered(logf, "annotate-bit-rot", seed)
	})
}
