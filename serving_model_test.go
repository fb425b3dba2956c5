package webfountain

// "Acked means mined", checked against a model instead of against three
// hand-picked scenarios: seeded random sequences of ingest batches,
// mid-batch deadline expiry, content-addressed WAL faults, explicit
// (no-op) checkpoints and crash-without-Close recoveries drive a real
// durable serving tier, and after every step the tier must agree with a
// model that is nothing but two ID sets and the analyzer:
//
//  1. every acked document is in the store carrying exactly the
//     annotations of AnalyzeText(its text) — once;
//  2. no document outside the folded set is in the sentiment index or
//     the aggregates, and with one ingest worker no unacked document of
//     a cut batch is in the store either (the one exception the
//     contract names: a document whose own annotate was refused);
//  3. the published view fingerprints identically to a cube built
//     offline from AnalyzeText over exactly the folded documents;
//  4. resending the unacked rest of a cut batch counts each document
//     once;
//  5. a restart is invisible: recovery analyzes only the documents that
//     were stored without sentiment annotations, a tier that served
//     everything the store held answers Entries for every subject
//     exactly as before the crash, and the checkpoint directory named in
//     the config never holds a file.
//
// IDs never repeat, except in the resend of (4), which only ever carries
// documents the tier has not folded: duplicate IDs, overwrite and delete
// belong to ROADMAP's next item.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	m    *SentimentMiner
	tier *ServingTier

	docs    map[string]serve.Doc // every document ever offered, by ID
	nextDoc int
	acked   map[string]bool // Ingest returned the ID
	folded  map[string]bool // served: acked, or recovered at a boot
	lastGen uint64
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
	if sm.m, err = NewSentimentMiner(MinerConfig{}); err != nil {
		sm.t.Fatal(err)
	}
	before := minedDocs.Value()
	if sm.tier, _, err = RecoverServingTier(sm.p, sm.m, sm.cfg); err != nil {
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
// some document, then resends the unacked rest (invariant 4): whatever
// part of it an extra worker had already stored is put again, annotated
// once and counted once.
func (sm *servingModel) stepDeadline() {
	batch := sm.nextDocs(2 + sm.rng.Intn(5))
	k := sm.rng.Intn(len(batch))
	cut, err := sm.ingest(&expireAfterCtx{Context: context.Background(), allow: k}, batch, k)
	if !errors.Is(err, context.DeadlineExceeded) {
		sm.t.Fatalf("deadline cut at %d: err = %v, want DeadlineExceeded", k, err)
	}
	if sm.workers == 1 {
		for _, d := range batch[cut:] {
			if _, found := sm.p.Entity(d.ID); found {
				sm.t.Fatalf("single worker stored %s past the deadline cut", d.ID)
			}
		}
	}
	sm.check("deadline cut")
	if _, err := sm.ingest(context.Background(), batch[cut:], -1); err != nil {
		sm.t.Fatalf("resend of the unacked rest: %v", err)
	}
}

// stepFault fails the WAL write of one document's put or annotate
// record: the batch is cut there and the store degrades until the next
// boot.
func (sm *servingModel) stepFault() {
	batch := sm.nextDocs(2 + sm.rng.Intn(5))
	k := sm.rng.Intn(len(batch))
	annotate := sm.rng.Intn(2) == 1 && len(sm.ref.AnalyzeText(batch[k].Text)) > 0
	sm.fault.arm(store.RecordPrefix(annotate, batch[k].ID))
	cut, err := sm.ingest(context.Background(), batch, k)
	sm.fault.disarm(sm.t)
	if err == nil {
		sm.t.Fatalf("batch with a failing WAL write at %d reported no error", k)
	}
	if deg, _ := sm.p.Degraded(); !deg {
		sm.t.Fatal("a failed WAL write left the store writable")
	}
	if sm.workers == 1 {
		for i, d := range batch[cut:] {
			_, found := sm.p.Entity(d.ID)
			if want := annotate && i == 0; found != want {
				sm.t.Fatalf("single worker, fault at %s (annotate=%v): %s stored = %v", batch[k].ID, annotate, d.ID, found)
			}
		}
	}
}

// stepCrash abandons the deployment without Close and recovers it
// (invariant 5). Every acked document must have survived; afterwards the
// never-acked documents the crash lost for good are resent.
func (sm *servingModel) stepCrash() {
	st := sm.p.internalStore()
	var unannotated int64
	servedAll := true
	for _, id := range st.IDs() {
		if sentimentAnnotations(st, id) == 0 {
			unannotated++
		}
		servedAll = servedAll && sm.folded[id]
	}
	before := entryDump(sm.tier)
	if analyzed := sm.open(); analyzed != unannotated {
		sm.t.Fatalf("recovery analyzed %d documents, the store held %d without sentiment annotations", analyzed, unannotated)
	}
	if after := entryDump(sm.tier); servedAll && after != before {
		sm.t.Fatalf("the restart changed what Entries answers:\nbefore %s\nafter  %s", before, after)
	}
	if g := sm.tier.View().Generation(); g < sm.lastGen {
		sm.t.Fatalf("generation regressed across the restart: %d -> %d", sm.lastGen, g)
	} else {
		sm.lastGen = g
	}
	sm.check("recovery")
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
	offline := serve.NewAggregates()
	var facts []serve.Fact
	var wantEntries []string
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
			facts = append(facts, aggFact(f, d.Date))
			// The sentiment index keys subjects case-folded.
			wantEntries = append(wantEntries, fmt.Sprintf("%s|%d|%s|%d|%s|%s", id, f.Sentence, strings.ToLower(f.Subject), f.Polarity, f.Feature, f.Snippet))
		}
	}
	offline.Apply(facts)
	if got, want := sm.tier.View().Fingerprint(), offline.View().Fingerprint(); got != want {
		sm.t.Fatalf("after %s: published view %s diverges from the offline cube %s over the %d folded documents",
			after, got[:12], want[:12], len(sm.folded))
	}
	var gotEntries []string
	for _, e := range sm.m.sidx.All() {
		gotEntries = append(gotEntries, fmt.Sprintf("%s|%d|%s|%d|%s|%s", e.DocID, e.Sentence, e.Subject, e.Polarity, e.Feature, e.Snippet))
	}
	sort.Strings(gotEntries)
	sort.Strings(wantEntries)
	if !reflect.DeepEqual(gotEntries, wantEntries) {
		sm.t.Fatalf("after %s: sentiment index holds %d entries, the folded documents mine %d:\n got %v\nwant %v",
			after, len(gotEntries), len(wantEntries), gotEntries, wantEntries)
	}
}

func (sm *servingModel) run(steps int) {
	for i := 0; i < steps; i++ {
		deg, _ := sm.p.Degraded()
		switch r := sm.rng.Intn(10); {
		case r >= 8 || deg && r < 5: // a degraded store refuses every write until the next boot
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
			sm.stepDeadline()
			sm.check("deadline resend")
		default:
			sm.stepFault()
			sm.check("WAL fault")
		}
	}
	sm.stepCrash()
	sm.check("final recovery")
	if len(sm.folded) != len(sm.docs) {
		sm.t.Fatalf("%d of %d offered documents folded after the final resend", len(sm.folded), len(sm.docs))
	}
}

// TestServingModelAckedMeansMined runs the model on three seeds with a
// serial ingest loop and with a four-worker pool.
func TestServingModelAckedMeansMined(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				newServingModel(t, seed, workers).run(60)
			})
		}
	}
}
