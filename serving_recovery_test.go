package webfountain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"webfountain/internal/corpus"
	"webfountain/internal/durable"
	"webfountain/internal/serve"
	"webfountain/internal/store"
)

// markerFailWAL fails any WAL append that contains the marker — a
// content-addressed disk fault, so the failing document is chosen by the
// test, not by record framing details. Markers come from
// store.RecordPrefix, so one names one record. An empty marker is a
// healthy disk. hits counts the appends the marker failed. With tear set
// the failing append reaches the file up to the marked record's payload
// (its frame header included): the torn record of a kill mid-append.
// With unsynced set the append itself succeeds and the sync after it
// fails instead: the cut of a crash after a commit's write, before its
// sync.
type markerFailWAL struct {
	durable.File
	marker   []byte
	tear     bool
	unsynced bool
	hits     int
	failSync bool // the next Sync fails: an unsynced append is pending
}

// arm fails the appends holding marker from now on, counting from zero.
func (w *markerFailWAL) arm(marker []byte) { w.marker, w.hits = marker, 0 }

// disarm heals the disk, failing the test unless the armed marker failed
// exactly one append: a marker that matches nothing tests nothing.
func (w *markerFailWAL) disarm(t testing.TB) {
	t.Helper()
	if w.hits != 1 {
		t.Fatalf("fault marker %q failed %d WAL appends, want exactly 1", w.marker, w.hits)
	}
	w.marker = nil
}

func (w *markerFailWAL) Write(p []byte) (int, error) {
	at := -1
	if len(w.marker) > 0 {
		at = bytes.Index(p, w.marker)
	}
	if at < 0 {
		return w.File.Write(p)
	}
	w.hits++
	if w.unsynced {
		w.failSync = true
		return w.File.Write(p)
	}
	n := 0
	if w.tear {
		n, _ = w.File.Write(p[:at])
	}
	return n, errors.New("injected disk failure")
}

func (w *markerFailWAL) Sync() error {
	if w.failSync {
		w.failSync = false
		return errors.New("injected sync failure")
	}
	return w.File.Sync()
}

// durableServingFixture opens a durable single-worker platform over dir
// (optionally with a WAL wrapper) and recovers a tier over it with a
// fresh miner.
func durableServingFixture(t *testing.T, dir string, wrap durable.Wrap, cfg ServingTierConfig) (*Platform, *ServingTier, ServingRecovery) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Shards: 4, WrapFile: wrap})
	if err != nil {
		t.Fatal(err)
	}
	p := platformOver(st, PlatformConfig{IngestWorkers: 1}.normalized())
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier, rec, err := RecoverServingTier(p, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, tier, rec
}

// TestServingTierIngestPartialFailurePrefix pins the analyze-then-commit
// contract for every way a batch can be cut or refused. A request
// deadline that expires before document k acks ids[:k]: the prefix is
// stored, annotated exactly once, mined and published already, and
// nothing past k reached the store, the sentiment index or the
// aggregates. A refused commit — a failed write of any document's put
// or annotate record, a torn write, a failed sync — acks nothing,
// leaves nothing stored or served, and degrades the store. A crash then
// recovers what the failed commit left on disk, none of it acked: a
// failed write left nothing, a torn one the records before the tear (a
// document stored without its annotate record is mined at boot), and a
// failed sync the whole batch.
func TestServingTierIngestPartialFailurePrefix(t *testing.T) {
	docs := []serve.Doc{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
		{ID: "d2", Date: "2003-02-10", Text: "The CLIE disappointed every reviewer."},
		{ID: "d3", Date: "2003-03-15", Text: "The KABOOM takes excellent pictures."},
		{ID: "d4", Date: "2003-04-20", Text: "The ZV500 takes excellent pictures."},
	}
	for _, c := range []struct {
		name      string
		marker    []byte // WAL record whose append fails (nil for a healthy disk)
		tear      bool
		unsynced  bool
		ctx       context.Context
		wantErr   string
		acked     []string
		recovered []string // what the store holds after a crash and reboot
		repaired  int      // of which recovery mined (stored without annotations)
	}{
		{name: "deadline before d3", ctx: &expireAfterCtx{Context: context.Background(), allow: 2},
			wantErr: "stopped before d3", acked: []string{"d1", "d2"}, recovered: []string{"d1", "d2"}},
		{name: "put of d3 refused", marker: store.RecordPrefix(false, "d3"),
			wantErr: "ingest commit of d1", recovered: nil},
		{name: "annotate of d3 refused", marker: store.RecordPrefix(true, "d3"),
			wantErr: "ingest commit of d1", recovered: nil},
		{name: "commit torn at d3's annotate", marker: store.RecordPrefix(true, "d3"), tear: true,
			wantErr: "ingest commit of d1", recovered: []string{"d1", "d2", "d3"}, repaired: 1},
		{name: "sync of the commit refused", marker: store.RecordPrefix(false, "d1"), unsynced: true,
			wantErr: "ingest commit of d1", recovered: []string{"d1", "d2", "d3", "d4"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			wal := &markerFailWAL{tear: c.tear, unsynced: c.unsynced}
			wrap := func(w durable.File) durable.File {
				wal.File = w
				wal.arm(c.marker)
				return wal
			}
			p, tier, _ := durableServingFixture(t, dir, wrap, ServingTierConfig{})
			ctx := c.ctx
			if ctx == nil {
				ctx = context.Background()
			}

			ids, _, err := tier.Ingest(ctx, docs)
			if c.marker != nil {
				wal.disarm(t)
			}
			if !sameStrings(ids, c.acked) || len(ids) != len(c.acked) {
				t.Fatalf("acked ids %v, want %v", ids, c.acked)
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want one naming %q", err, c.wantErr)
			}
			refused := c.marker != nil
			if isDeadline := errors.Is(err, context.DeadlineExceeded); isDeadline == refused {
				t.Errorf("errors.Is(err, DeadlineExceeded) = %v for %v", isDeadline, err)
			}
			if isReadOnly := errors.Is(err, store.ErrReadOnly); isReadOnly != refused {
				t.Errorf("errors.Is(err, store.ErrReadOnly) = %v for %v", isReadOnly, err)
			}
			if deg, _ := p.Degraded(); deg != refused {
				t.Errorf("store degraded = %v, want %v", deg, refused)
			}

			// The acked prefix is complete now; nothing else is anywhere.
			st := p.internalStore()
			if got := st.IDs(); !sameStrings(got, c.acked) {
				t.Errorf("store holds %v, want exactly the acked %v", got, c.acked)
			}
			for _, id := range c.acked {
				if n := sentimentAnnotations(st, id); n != 1 {
					t.Errorf("%s: %d sentiment annotations when Ingest returned, want exactly 1", id, n)
				}
			}
			v := tier.View()
			if published := len(c.acked) > 0; (v.Generation() == 1) != published || v.Generation() > 1 {
				t.Errorf("generation %d, want one publish exactly when something was acked", v.Generation())
			}
			if v.Facts() != len(c.acked) {
				t.Errorf("%d facts published, want one per acked document", v.Facts())
			}
			for i, d := range []string{"NR70", "CLIE", "KABOOM", "ZV500"} {
				served := i < len(c.acked)
				if c := v.Counts(d); (c.Total() == 1) != served || c.Total() > 1 {
					t.Errorf("%s counts %+v, want served = %v", d, c, served)
				}
				if entries := v.Entries(d); (len(entries) == 1) != served || len(entries) > 1 {
					t.Errorf("%s: %d entries served, want served = %v", d, len(entries), served)
				}
			}
			preFP, preEntries := v.Fingerprint(), entryDump(v)

			// Nothing is owed: on a healthy store the next batch publishes
			// its own document and nothing else.
			if !refused {
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
			if err := st.Put(&store.Entity{ID: "late", Text: "x"}); !errors.Is(err, store.ErrReadOnly) {
				t.Fatalf("write after a refused commit: %v, want ErrReadOnly", err)
			}

			// Crash (no Close) and recover over a healthy disk: recovery
			// serves whatever part of the refused commit reached the disk
			// — folded where the annotate record came with it, mined and
			// annotated where only the put did — and nothing else.
			p2, tier2, rec := durableServingFixture(t, dir, nil, ServingTierConfig{})
			if got := p2.internalStore().IDs(); !sameStrings(got, c.recovered) {
				t.Fatalf("recovered store holds %v, want %v", got, c.recovered)
			}
			if rec.RepairedDocs != c.repaired || rec.FoldedDocs != len(c.recovered)-c.repaired {
				t.Fatalf("recovery %+v, want %d folded and %d mined", rec, len(c.recovered)-c.repaired, c.repaired)
			}
			if torn := p2.internalStore().Durability().TruncatedBytes; (torn > 0) != c.tear {
				t.Errorf("recovery truncated %d torn bytes, tear = %v", torn, c.tear)
			}
			if got := tier2.View().Fingerprint(); (got == preFP) != (len(c.recovered) == 0) {
				t.Errorf("recovered aggregates vs the pre-crash view: equal = %v with %v recovered", got == preFP, c.recovered)
			}
			if got := entryDump(tier2.View()); (got == preEntries) != (len(c.recovered) == 0) {
				t.Errorf("recovered entries vs the pre-crash view's: equal = %v with %v recovered", got == preEntries, c.recovered)
			}
			for _, id := range c.recovered {
				if n := sentimentAnnotations(p2.internalStore(), id); n != 1 {
					t.Errorf("%s: %d sentiment annotations after recovery, want exactly 1", id, n)
				}
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

// assertNoRegularFile fails when dir (which may not exist) holds a file.
func assertNoRegularFile(t *testing.T, dir string) {
	t.Helper()
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // a missing dir holds no file
		if err == nil && d.Type().IsRegular() {
			t.Errorf("the serving tier left %s behind; it must write no file of its own", path)
		}
		return nil
	})
}

// entryDump renders Entries(subject) of every subject the view names.
func entryDump(v *serve.View) string {
	var b strings.Builder
	for _, subject := range v.Subjects() {
		fmt.Fprintf(&b, "%s: %+v\n", subject, v.Entries(subject))
	}
	return b.String()
}

// TestServingTierRestartRoundTrip: a restart — after a clean Close or a
// crash without one, there is no difference — folds the stored
// annotations back into the same aggregates and the same sentiment
// entries, snippets and features included, without calling the tokenizer
// or the analyzer once, and without a checkpoint file.
func TestServingTierRestartRoundTrip(t *testing.T) {
	dataDir, ckptDir := t.TempDir(), filepath.Join(t.TempDir(), "ckpt")
	cfg := ServingTierConfig{CheckpointDir: ckptDir, CheckpointEvery: 2}

	p1, tier1, rec := durableServingFixture(t, dataDir, nil, cfg)
	if rec != (ServingRecovery{}) || tier1.View().Generation() != 0 {
		t.Fatalf("fresh boot recovery %+v at generation %d, want empty", rec, tier1.View().Generation())
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
	if err := tier1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantFP, wantGen := tier1.View().Fingerprint(), tier1.View().Generation()
	wantDump := entryDump(tier1.View())
	if err := tier1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoRegularFile(t, ckptDir)

	docsBefore, factsBefore := minedDocs.Value(), minedFacts.Value()
	_, tier2, rec2 := durableServingFixture(t, dataDir, nil, cfg)
	if rec2.FoldedDocs != 3 || rec2.RepairedDocs != 0 {
		t.Fatalf("restart recovery %+v, want the 3 documents folded and none mined", rec2)
	}
	if d, f := minedDocs.Value()-docsBefore, minedFacts.Value()-factsBefore; d != 0 || f != 0 {
		t.Errorf("recovery of an annotated corpus analyzed %d documents (%d facts), want none", d, f)
	}
	v := tier2.View()
	if v.Generation() != wantGen {
		t.Errorf("restored generation %d, want %d (three batches of one document)", v.Generation(), wantGen)
	}
	if v.Fingerprint() != wantFP {
		t.Error("restored aggregates diverge from the pre-restart state")
	}
	if got := entryDump(v); got != wantDump {
		t.Errorf("restored Entries diverge:\n got %s\nwant %s", got, wantDump)
	}
	assertNoRegularFile(t, ckptDir)
}

// TestServingTierRecoverRepairsUnannotated: documents the store acked
// durably but that carry no sentiment annotations (stored by plain
// Platform.Ingest, or cut off between their put and annotate records)
// are mined at boot — annotated exactly once, generation past the
// pre-crash value — and the boot after that folds them like any other.
func TestServingTierRecoverRepairsUnannotated(t *testing.T) {
	dataDir := t.TempDir()
	p1, tier1, _ := durableServingFixture(t, dataDir, nil, ServingTierConfig{})
	if _, _, err := tier1.Ingest(context.Background(), []serve.Doc{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
	}); err != nil {
		t.Fatal(err)
	}
	preGen := tier1.View().Generation()
	if _, err := p1.Ingest([]Document{
		{ID: "x1", Date: "2003-05-01", Text: "The QX310 takes excellent pictures."},
		{ID: "x2", Date: "2003-06-01", Text: "The QX320 disappointed every reviewer."},
		{ID: "x3", Date: "2003-07-01", Text: "We carried the QX330 around town on Monday."},
	}); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.

	docsBefore := minedDocs.Value()
	p2, tier2, rec := durableServingFixture(t, dataDir, nil, ServingTierConfig{})
	if rec.FoldedDocs != 1 || rec.RepairedDocs != 3 {
		t.Fatalf("recovery %+v, want d1 folded and the 3 un-annotated documents mined", rec)
	}
	if d := minedDocs.Value() - docsBefore; d != 3 {
		t.Errorf("recovery analyzed %d documents, want exactly the 3 un-annotated ones", d)
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
	for id, want := range map[string]int{"d1": 1, "x1": 1, "x2": 1, "x3": 0} {
		if got := sentimentAnnotations(p2.internalStore(), id); got != want {
			t.Errorf("%s: %d sentiment annotations, want %d (repair annotates once, and only facts)", id, got, want)
		}
	}
	fp, gen, dump := v.Fingerprint(), v.Generation(), entryDump(v)

	// A second crash straight after recovery: the repaired documents now
	// carry their facts, so the next boot mines only the sentiment-free
	// x3 again and lands on the identical state.
	_, tier3, rec3 := durableServingFixture(t, dataDir, nil, ServingTierConfig{})
	if rec3.FoldedDocs != 3 || rec3.RepairedDocs != 1 {
		t.Errorf("second recovery %+v, want 3 folded and only x3 mined", rec3)
	}
	if got := tier3.View(); got.Fingerprint() != fp || got.Generation() != gen || entryDump(got) != dump {
		t.Errorf("second recovery diverged: gen %d fp %s, want gen %d fp %s",
			got.Generation(), got.Fingerprint()[:8], gen, fp[:8])
	}
}

// TestServingTierRecoverRemineOnUnusableAnnotations: sentiment
// annotations that do not carry a whole fact — no span or feature, as
// every data directory written before the annotate record carried them
// holds; or a span outside the text — never panic and are never served:
// the document is mined again, its annotations are left as they are (no
// second annotate record), and the tier lands on the fingerprint the
// corpus always had.
func TestServingTierRecoverRemineOnUnusableAnnotations(t *testing.T) {
	docs := []Document{
		{ID: "d1", Date: "2003-01-05", Text: "The NR70 takes excellent pictures."},
		{ID: "d2", Date: "2003-02-10", Text: "The CLIE disappointed every reviewer. The CLIE battery life is excellent."},
	}
	ref, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	offline := serve.NewAggregates()
	var want []serve.Fact
	for _, d := range docs {
		for _, f := range ref.AnalyzeText(d.Text) {
			f.DocID = d.ID
			want = append(want, aggFact(f, d.Date))
		}
	}
	offline.Apply(want)

	for name, spoil := range map[string]func(a *store.Annotation, text string){
		"written before spans were recorded": func(a *store.Annotation, _ string) { a.Start, a.End, a.Feature = 0, 0, "" },
		"span past the end of the text":      func(a *store.Annotation, text string) { a.End = len(text) + 1 },
		"negative start":                     func(a *store.Annotation, _ string) { a.Start = -4 },
		"inverted span":                      func(a *store.Annotation, _ string) { a.Start, a.End = a.End, a.Start },
		"unknown polarity":                   func(a *store.Annotation, _ string) { a.Value = "0" },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			p := platformOver(st, PlatformConfig{IngestWorkers: 1}.normalized())
			if _, err := p.Ingest(docs); err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				anns := annotationsOf(ref.AnalyzeText(d.Text))
				for i := range anns {
					spoil(&anns[i], d.Text)
				}
				if _, err := st.Annotate(d.ID, anns); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			p2, tier, rec := durableServingFixture(t, dir, nil, ServingTierConfig{})
			if rec.FoldedDocs != 0 || rec.RepairedDocs != len(docs) {
				t.Fatalf("recovery %+v, want both documents mined again", rec)
			}
			if got := tier.View(); got.Fingerprint() != offline.View().Fingerprint() || entryDump(got) != entryDump(offline.View()) {
				t.Errorf("recovered fingerprint %s, want the corpus's own %s; entries\n%s\nwant\n%s",
					got.Fingerprint()[:12], offline.View().Fingerprint()[:12], entryDump(got), entryDump(offline.View()))
			}
			if got := tier.Entries(context.Background(), "CLIE"); len(got) != 2 || got[1].Feature != "CLIE battery life" || !strings.Contains(got[0].Snippet, "disappointed") {
				t.Errorf("CLIE entries after the re-mine: %+v", got)
			}
			for _, d := range docs {
				if got, want := sentimentAnnotations(p2.internalStore(), d.ID), len(ref.AnalyzeText(d.Text)); got != want {
					t.Errorf("%s: %d sentiment annotations after recovery, want the original %d", d.ID, got, want)
				}
			}
		})
	}
}

// wildText is the hand-written document of the fold property: every
// class of byte the WAL's XML encoding escapes or rewrites.
const wildText = "The NR70 takes excellent pictures & \"video\".\r\nThe CLIE\tdisappointed every reviewer <badly>.\x01 " +
	"The ZV500 takes excellent pictures \xff\xfe and so on. The QX10\ufffe takes excellent pictures.\n\n" +
	"  The \xed\xa0\x80 KX77 screen is disappointing ]]> in low light.\r"

// TestFoldEqualsAnalyze is the property the recovery path rests on: for
// any document, the facts folded from the entity a reopened store
// replays equal the facts the analyzer extracted at ingest, field by
// field (Pattern aside, which is not stored), with byte-identical
// snippets — over all five corpus generators and a document built from
// the bytes XML treats specially.
func TestFoldEqualsAnalyze(t *testing.T) {
	var docs []Document
	for name, gen := range map[string]func(int64, int) []corpus.Document{
		"camera": corpus.DigitalCameraReviews, "music": corpus.MusicReviews, "petroleum": corpus.PetroleumWeb,
		"pharma": corpus.PharmaWeb, "news": corpus.PetroleumNews,
	} {
		for _, d := range gen(11, 12) {
			docs = append(docs, Document{ID: name + "-" + d.ID, Date: d.Date, Text: d.Text()})
		}
	}
	docs = append(docs, Document{ID: "wild", Date: "2003-01-05", Text: wildText})

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := platformOver(st, PlatformConfig{IngestWorkers: 1}.normalized())
	if _, err := p.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	analyzed := map[string][]SubjectSentiment{}
	total := 0
	for _, d := range docs {
		e, _ := st.Get(d.ID)
		if want := sanitizeText(d.Text); e.Text != want {
			t.Fatalf("%s: stored text is not the sanitised request text", d.ID)
		}
		facts := m.analyzeEntity(d.ID, e.Text, nil)
		for i := range facts {
			facts[i].Pattern = ""
		}
		analyzed[d.ID] = facts
		total += len(facts)
		if _, err := st.Annotate(d.ID, annotationsOf(facts)); err != nil {
			t.Fatal(err)
		}
	}
	if total < 100 || len(analyzed["wild"]) < 4 {
		t.Fatalf("%d facts in all, %d in the wild document: the property would be checked on next to nothing", total, len(analyzed["wild"]))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.Open(dir, store.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, d := range docs {
		e, ok := st.Get(d.ID)
		if !ok {
			t.Fatalf("%s lost across the reopen", d.ID)
		}
		if want := sanitizeText(d.Text); e.Text != want {
			t.Errorf("%s: replayed text differs from the text that was mined (%d vs %d bytes)", d.ID, len(e.Text), len(want))
		}
		folded, ok := storedFacts(e)
		if want := analyzed[d.ID]; ok != (len(want) > 0) || len(folded) != len(want) {
			t.Errorf("%s: folded %d facts (ok=%v), the analyzer extracted %d", d.ID, len(folded), ok, len(want))
		} else if len(want) > 0 && !reflect.DeepEqual(folded, want) {
			t.Errorf("%s: folded facts differ from the analyzer's:\n got %+v\nwant %+v", d.ID, folded, want)
		}
	}
}

// legacyWALBatches is the history behind the logs in testdata/legacy-*-wal:
// nine camera reviews and the wild document, ingested through a durable
// serving tier four documents at a time. Each log there was written in
// a record format that a later one replaced: legacy-xml-wal in the XML
// bodies (ops 1 and 3), legacy-binary-wal in the plain binary bodies
// without a string table (ops 5 and 6). legacyWALFingerprint is the
// fingerprint both tiers served at shutdown.
func legacyWALBatches() [][]serve.Doc {
	var docs []serve.Doc
	for _, d := range corpus.DigitalCameraReviews(5, 9) {
		docs = append(docs, serve.Doc{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text()})
	}
	docs = append(docs, serve.Doc{ID: "wild", Date: "2003-01-05", Text: wildText})
	var batches [][]serve.Doc
	for len(docs) > 0 {
		n := min(4, len(docs))
		batches, docs = append(batches, docs[:n]), docs[n:]
	}
	return batches
}

const legacyWALFingerprint = "2875eaccbed119afdc4a1f4251417e4f737f5aa3a423fc4155d7aeb4bc79a6b1"

// TestServingTierRecoversLegacyLog: a data directory whose log was
// written in an older record format recovers to the tier it served when
// it was written, and to the tier a log of today's records for the same
// history recovers to: same fingerprint, same entries for every
// subject, same stored entities. Today's records appended behind the
// old ones replay with them.
func TestServingTierRecoversLegacyLog(t *testing.T) {
	for _, c := range []struct {
		fixture string
		markers []string // bytes only that format writes, for the wild document
	}{
		{"legacy-xml-wal", []string{`<entity id="wild"`, `<annotate id="wild"`}},
		{"legacy-binary-wal", []string{"\x05\x04wild", "\x06\x04wild"}}, // op, plain length, ID
	} {
		t.Run(c.fixture, func(t *testing.T) {
			legacy, err := os.ReadFile(filepath.Join("testdata", c.fixture, "wal-00000000.log"))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range c.markers {
				if !bytes.Contains(legacy, []byte(m)) {
					t.Fatalf("testdata/%s holds no %q", c.fixture, m)
				}
			}
			oldDir, newDir := t.TempDir(), t.TempDir()
			if err := os.WriteFile(filepath.Join(oldDir, "wal-00000000.log"), legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			p, tier, _ := durableServingFixture(t, newDir, nil, ServingTierConfig{})
			for _, b := range legacyWALBatches() {
				if _, _, err := tier.Ingest(context.Background(), b); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			// Each call boots both directories afresh: a first boot that
			// had to mine what the old log failed to deliver would show
			// in recovery.
			compare := func(label string) (fingerprint string) {
				t.Helper()
				pO, tierO, recO := durableServingFixture(t, oldDir, nil, ServingTierConfig{})
				pN, tierN, recN := durableServingFixture(t, newDir, nil, ServingTierConfig{})
				defer pO.Close()
				defer pN.Close()
				if recO != recN || recO.FoldedDocs == 0 {
					t.Fatalf("%s: recovery %+v from the old log, %+v from today's", label, recO, recN)
				}
				fingerprint = tierO.View().Fingerprint()
				if fn := tierN.View().Fingerprint(); fingerprint != fn {
					t.Fatalf("%s: fingerprint %s from the old log, %s from today's", label, fingerprint[:12], fn[:12])
				}
				if do, dn := entryDump(tierO.View()), entryDump(tierN.View()); do != dn {
					t.Fatalf("%s: entries differ\n--- old log ---\n%s\n--- today's log ---\n%s", label, do, dn)
				}
				so, sn := pO.internalStore(), pN.internalStore()
				if !reflect.DeepEqual(so.IDs(), sn.IDs()) {
					t.Fatalf("%s: stored IDs %v from the old log, %v from today's", label, so.IDs(), sn.IDs())
				}
				for _, id := range sn.IDs() {
					eo, _ := so.Get(id)
					en, _ := sn.Get(id)
					if !reflect.DeepEqual(eo, en) {
						t.Fatalf("%s: %s is\n%+v\nfrom the old log, and\n%+v\nfrom today's", label, id, eo, en)
					}
				}
				return fingerprint
			}
			if got := compare("as written"); got != legacyWALFingerprint {
				t.Fatalf("both logs recover to fingerprint %s, want the %s the old log was written with", got[:12], legacyWALFingerprint[:12])
			}

			more := []serve.Doc{{ID: "after", Date: "2004-01-02", Text: "The Minolta takes excellent pictures. The CLIE screen is disappointing."}}
			for _, dir := range []string{oldDir, newDir} {
				p, tier, _ := durableServingFixture(t, dir, nil, ServingTierConfig{})
				if _, _, err := tier.Ingest(context.Background(), more); err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := compare("after an append"); got == legacyWALFingerprint {
				t.Fatal("the appended document changed nothing served")
			}
		})
	}
}
