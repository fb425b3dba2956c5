package webfountain

// "Acked means mined", checked against a model instead of against three
// hand-picked scenarios: seeded random sequences of ingest batches,
// mid-batch deadline expiry, content-addressed WAL faults (a refused or
// torn commit write, or a commit written but never synced), explicit
// (no-op) checkpoints and crash-without-Close recoveries drive a real
// durable serving tier, and after every step the tier must agree with a
// model that is nothing but two ID sets and the analyzer:
//
//  1. every acked document is in the store carrying exactly the
//     annotations of AnalyzeText(its text) — once;
//  2. the live store holds exactly the folded set, whatever the number
//     of ingest workers: nothing past a deadline cut and nothing of a
//     refused commit is stored, and no unfolded document is in the
//     View;
//  3. the published view fingerprints identically to a cube built
//     offline from AnalyzeText over exactly the folded documents — so
//     with 2, the tier equals an offline fold of the store;
//  4. resending the unacked rest of a cut batch counts each document
//     once;
//  5. a restart is invisible: every acked document is recovered, the
//     tier then equals an offline fold of the recovered store, recovery
//     analyzes only the documents the disk held without sentiment
//     annotations, a tier that served everything the disk held answers
//     Entries for every subject exactly as before the crash, and the
//     checkpoint directory named in the config never holds a file.
//
// The crash points are: between batches, after a refused commit (its
// write failed, or tore inside the marked record), and after a commit's
// write before its sync — the last two leave unacked records on disk,
// which recovery serves.
//
// IDs never repeat, except in the resend of (4), which only ever carries
// documents the tier has not folded: duplicate IDs, overwrite and delete
// belong to ROADMAP's next item.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webfountain/internal/durable"
	"webfountain/internal/serve"
	"webfountain/internal/store"
)

type servingModel struct {
	t       *testing.T
	workers int
	dataDir string
	cfg     ServingTierConfig
	rng     *rand.Rand
	ref     *SentimentMiner // the model's analyzer: AnalyzeText only
	fault   *markerFailWAL  // of the live WAL; marker nil means healthy

	p    *Platform
	tier *ServingTier

	docs    map[string]serve.Doc // every document ever offered, by ID
	nextDoc int
	acked   map[string]bool // Ingest returned the ID
	folded  map[string]bool // served: acked, or recovered at a boot
	lastGen uint64
	steps   map[string]int // steps taken, by kind
}

func newServingModel(t *testing.T, seed int64, workers int) *servingModel {
	t.Helper()
	ref, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	sm := &servingModel{
		t: t, workers: workers, rng: rand.New(rand.NewSource(seed)), ref: ref,
		dataDir: filepath.Join(base, "data"),
		cfg:     ServingTierConfig{CheckpointDir: filepath.Join(base, "ckpt"), CheckpointEvery: 3},
		docs:    map[string]serve.Doc{}, acked: map[string]bool{}, folded: map[string]bool{},
		steps: map[string]int{},
	}
	sm.open()
	return sm
}

// open boots (or, after a crash, re-boots) the deployment on a healthy
// disk. Recovery serves everything the store holds, so the folded set
// becomes the store's ID set. It returns how many documents recovery
// analyzed.
func (sm *servingModel) open() (analyzed int64) {
	sm.t.Helper()
	st, err := store.Open(sm.dataDir, store.Options{Shards: 4, WrapFile: func(f durable.File) durable.File {
		sm.fault = &markerFailWAL{File: f}
		return sm.fault
	}})
	if err != nil {
		sm.t.Fatal(err)
	}
	sm.p = platformOver(st, PlatformConfig{IngestWorkers: sm.workers}.normalized())
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		sm.t.Fatal(err)
	}
	before := minedDocs.Value()
	if sm.tier, _, err = RecoverServingTier(sm.p, m, sm.cfg); err != nil {
		sm.t.Fatal(err)
	}
	for _, id := range st.IDs() {
		sm.folded[id] = true
	}
	return minedDocs.Value() - before
}

var modelTexts = []string{
	"The SUBJ takes excellent pictures.",
	"The SUBJ disappointed every reviewer.",
	"The SUBJ takes excellent pictures. The SUBJ screen is disappointing in low light.",
	"We carried the SUBJ around town on Monday.", // no sentiment: no annotate record at all
}

func (sm *servingModel) nextDocs(n int) []serve.Doc {
	out := make([]serve.Doc, n)
	for i := range out {
		subject := fmt.Sprintf("KX%03d", sm.rng.Intn(60))
		d := serve.Doc{
			ID:   fmt.Sprintf("m-%04d", sm.nextDoc),
			Date: fmt.Sprintf("2003-%02d-%02d", 1+sm.rng.Intn(12), 1+sm.rng.Intn(28)),
			Text: strings.ReplaceAll(modelTexts[sm.rng.Intn(len(modelTexts))], "SUBJ", subject),
		}
		sm.nextDoc++
		sm.docs[d.ID] = d
		out[i] = d
	}
	return out
}

// ingest runs one batch and checks the prefix contract: the IDs are a
// prefix of the batch, the batch erred exactly when it was cut, and the
// generation moved by one publish unless nothing was acked and it
// failed. wantCut < 0 means the cut point is not known in advance.
func (sm *servingModel) ingest(ctx context.Context, batch []serve.Doc, wantCut int) (cut int, err error) {
	sm.t.Helper()
	ids, _, err := sm.tier.Ingest(ctx, batch)
	if len(ids) > len(batch) {
		sm.t.Fatalf("acked %d ids of a %d-document batch", len(ids), len(batch))
	}
	for i, id := range ids {
		if id != batch[i].ID {
			sm.t.Fatalf("acked ids %v are not a prefix of the batch", ids)
		}
		if sm.folded[id] {
			sm.t.Fatalf("model bug: %s offered twice after it was folded", id)
		}
		sm.acked[id], sm.folded[id] = true, true
	}
	if (err == nil) != (len(ids) == len(batch)) {
		sm.t.Fatalf("acked %d of %d with err = %v", len(ids), len(batch), err)
	}
	if wantCut >= 0 && sm.workers == 1 && len(ids) != wantCut {
		sm.t.Fatalf("single worker acked %d documents, want the cut at %d (err %v)", len(ids), wantCut, err)
	}
	if wantCut >= 0 && len(ids) > wantCut {
		sm.t.Fatalf("acked %d documents past a cut at %d", len(ids), wantCut)
	}
	wantGen := sm.lastGen
	if len(ids) > 0 || err == nil {
		wantGen++
	}
	if g := sm.tier.View().Generation(); g != wantGen {
		sm.t.Fatalf("generation %d after the batch, want %d", g, wantGen)
	}
	sm.lastGen = wantGen
	return len(ids), err
}

// stepDeadline cuts a batch with a request deadline that expires before
// some document, then resends the unacked rest (invariant 4): nothing of
// it was stored, whatever an extra worker had already analyzed, so it is
// stored, annotated and counted once.
func (sm *servingModel) stepDeadline() {
	batch := sm.nextDocs(2 + sm.rng.Intn(5))
	k := sm.rng.Intn(len(batch))
	cut, err := sm.ingest(&expireAfterCtx{Context: context.Background(), allow: k}, batch, k)
	if !errors.Is(err, context.DeadlineExceeded) {
		sm.t.Fatalf("deadline cut at %d: err = %v, want DeadlineExceeded", k, err)
	}
	sm.assertUnstored(batch[cut:], "past the deadline cut")
	sm.check("deadline cut")
	if _, err := sm.ingest(context.Background(), batch[cut:], -1); err != nil {
		sm.t.Fatalf("resend of the unacked rest: %v", err)
	}
}

// assertUnstored fails when any of docs is in the live store.
func (sm *servingModel) assertUnstored(docs []serve.Doc, why string) {
	sm.t.Helper()
	for _, d := range docs {
		if _, found := sm.p.Entity(d.ID); found {
			sm.t.Fatalf("%d workers stored %s %s", sm.workers, d.ID, why)
		}
	}
}

// refuse runs a batch whose one commit the disk refuses — the append
// holding one document's put or annotate record fails (torn inside that
// record, when tear is set), or with unsynced it lands and its sync
// fails — and checks that nothing was acked, applied or served and that
// the store degraded until the next boot.
func (sm *servingModel) refuse(batch []serve.Doc, tear, unsynced bool) {
	sm.t.Helper()
	k := sm.rng.Intn(len(batch))
	annotate := sm.rng.Intn(2) == 1 && len(sm.ref.AnalyzeText(batch[k].Text)) > 0
	sm.fault.tear, sm.fault.unsynced = tear, unsynced
	sm.fault.arm(store.RecordPrefix(annotate, batch[k].ID))
	cut, err := sm.ingest(context.Background(), batch, 0)
	sm.fault.disarm(sm.t)
	sm.fault.tear, sm.fault.unsynced = false, false
	if err == nil || cut != 0 || !errors.Is(err, store.ErrReadOnly) {
		sm.t.Fatalf("refused commit (fault at %s): acked %d, err = %v; want nothing acked and ErrReadOnly", batch[k].ID, cut, err)
	}
	if deg, _ := sm.p.Degraded(); !deg {
		sm.t.Fatal("a refused commit left the store writable")
	}
	sm.assertUnstored(batch, "of a refused commit")
}

// stepFault fails (or tears) the WAL write of a batch's commit.
func (sm *servingModel) stepFault() {
	sm.refuse(sm.nextDocs(2+sm.rng.Intn(5)), sm.rng.Intn(2) == 1, false)
}

// stepUnsynced crashes after a commit's write, before its sync: the sync
// fails, so nothing is acked, applied or served, and the process dies
// with the whole batch in the log — which recovery then serves.
func (sm *servingModel) stepUnsynced() {
	batch := sm.nextDocs(1 + sm.rng.Intn(6))
	sm.refuse(batch, false, true)
	sm.check("unsynced commit")
	sm.crashRecover()
	for _, d := range batch {
		if !sm.folded[d.ID] {
			sm.t.Fatalf("%s was written before the crash but not recovered", d.ID)
		}
	}
	sm.resendLost()
}

// stepCrash abandons the deployment without Close and recovers it
// (invariant 5); afterwards the never-acked documents the crash lost for
// good are resent.
func (sm *servingModel) stepCrash() {
	sm.crashRecover()
	sm.resendLost()
}

// crashRecover abandons the deployment without Close and recovers it
// (invariant 5). What the disk held is read first, from a copy of the
// data directory: the live store plus whatever records a refused commit
// left there.
func (sm *servingModel) crashRecover() {
	sm.t.Helper()
	disk, err := store.Open(copyDir(sm.t, sm.dataDir), store.Options{Shards: 4})
	if err != nil {
		sm.t.Fatal(err)
	}
	var unannotated int64
	servedAll := true
	for _, id := range disk.IDs() {
		if sentimentAnnotations(disk, id) == 0 {
			unannotated++
		}
		servedAll = servedAll && sm.folded[id]
	}
	disk.Close()
	before := entryDump(sm.tier.View())
	if analyzed := sm.open(); analyzed != unannotated {
		sm.t.Fatalf("recovery analyzed %d documents, the disk held %d without sentiment annotations", analyzed, unannotated)
	}
	for id := range sm.acked {
		if _, found := sm.p.Entity(id); !found {
			sm.t.Fatalf("acked %s lost across the crash", id)
		}
	}
	if after := entryDump(sm.tier.View()); servedAll && after != before {
		sm.t.Fatalf("the restart changed what Entries answers:\nbefore %s\nafter  %s", before, after)
	}
	if g := sm.tier.View().Generation(); g < sm.lastGen {
		sm.t.Fatalf("generation regressed across the restart: %d -> %d", sm.lastGen, g)
	} else {
		sm.lastGen = g
	}
	sm.check("recovery")
}

// resendLost resends, as one batch, every offered document that is not
// folded.
func (sm *servingModel) resendLost() {
	sm.t.Helper()
	var lost []serve.Doc
	for id, d := range sm.docs {
		if !sm.folded[id] {
			lost = append(lost, d)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
	if len(lost) > 0 {
		if _, err := sm.ingest(context.Background(), lost, -1); err != nil {
			sm.t.Fatalf("resend of %d lost documents after recovery: %v", len(lost), err)
		}
	}
}

// copyDir copies the regular files of dir into a fresh temporary
// directory and returns its path.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// check asserts invariants 1–3 against the live deployment, and that
// the tier has written no file of its own.
func (sm *servingModel) check(after string) {
	sm.t.Helper()
	assertNoRegularFile(sm.t, sm.cfg.CheckpointDir)
	st := sm.p.internalStore()
	for id := range sm.acked {
		if !sm.folded[id] {
			sm.t.Fatalf("after %s: acked %s is not folded", after, id)
		}
	}
	// Every folded document is in the store (below), so equal sizes
	// mean the store holds nothing else.
	if n := st.Len(); n != len(sm.folded) {
		sm.t.Fatalf("after %s: the store holds %d documents, the tier serves %d", after, n, len(sm.folded))
	}
	offline := serve.NewAggregates()
	var facts []serve.Fact
	for id := range sm.folded {
		d := sm.docs[id]
		mined := sm.ref.AnalyzeText(d.Text)
		var got []store.Annotation
		if !st.View(id, func(e *store.Entity) { got = append(got, e.AnnotationsBy(MinerName)...) }) {
			sm.t.Fatalf("after %s: folded document %s is not in the store", after, id)
		}
		if want := annotationsOf(mined); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			sm.t.Fatalf("after %s: %s carries annotations %+v, want exactly %+v", after, id, got, want)
		}
		for _, f := range mined {
			f.DocID = id
			facts = append(facts, aggFact(f, d.Date))
		}
	}
	offline.Apply(facts)
	if got, want := sm.tier.View().Fingerprint(), offline.View().Fingerprint(); got != want {
		sm.t.Fatalf("after %s: published view %s diverges from the offline cube %s over the %d folded documents",
			after, got[:12], want[:12], len(sm.folded))
	}
	if got, want := entryDump(sm.tier.View()), entryDump(offline.View()); got != want {
		sm.t.Fatalf("after %s: the View's entries diverge from the offline fold over the %d folded documents:\n got %s\nwant %s",
			after, len(sm.folded), got, want)
	}
}

func (sm *servingModel) run(steps int) {
	for i := 0; i < steps; i++ {
		deg, _ := sm.p.Degraded()
		switch r := sm.rng.Intn(11); {
		case r >= 9 || deg && r < 5: // a degraded store refuses every write until the next boot
			sm.steps["crash"]++
			sm.stepCrash()
			sm.check("recovery resend")
		case r == 7:
			if err := sm.tier.Checkpoint(); err != nil {
				sm.t.Fatal(err)
			}
			sm.check("checkpoint")
		case r < 4 || deg:
			batch := sm.nextDocs(1 + sm.rng.Intn(6))
			want := len(batch)
			if deg {
				want = 0
			}
			sm.ingest(context.Background(), batch, want) //nolint:errcheck // a degraded store refuses; ingest checked the shape
			sm.check("ingest")
		case r < 6:
			sm.steps["deadline"]++
			sm.stepDeadline()
			sm.check("deadline resend")
		case r == 6:
			sm.steps["fault"]++
			sm.stepFault()
			sm.check("WAL fault")
		default:
			sm.steps["unsynced"]++
			sm.stepUnsynced()
			sm.check("unsynced-commit resend")
		}
	}
	for _, kind := range []string{"crash", "deadline", "fault", "unsynced"} {
		if sm.steps[kind] == 0 {
			sm.t.Fatalf("the run took no %s step: %v", kind, sm.steps)
		}
	}
	sm.t.Logf("steps: %v", sm.steps)
	sm.stepCrash()
	sm.check("final recovery")
	if len(sm.folded) != len(sm.docs) {
		sm.t.Fatalf("%d of %d offered documents folded after the final resend", len(sm.folded), len(sm.docs))
	}
}

// TestServingModelAckedMeansMined runs the model on three seeds with a
// serial ingest loop and with a four-worker pool; every invariant holds
// for both.
func TestServingModelAckedMeansMined(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				newServingModel(t, seed, workers).run(60)
			})
		}
	}
}
