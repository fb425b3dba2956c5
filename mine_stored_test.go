package webfountain

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"webfountain/internal/corpus"
	"webfountain/internal/durable"
	"webfountain/internal/miners"
	"webfountain/internal/serve"
	"webfountain/internal/store"
)

// storedPassDocs is the 20-review camera corpus the stored-document pass
// tests mine: 61 sentiment facts in the default miner configuration.
func storedPassDocs() []serve.Doc {
	gen := corpus.DigitalCameraReviews(7, 20)
	docs := make([]serve.Doc, len(gen))
	for i := range gen {
		docs[i] = serve.Doc{ID: gen[i].ID, Source: gen[i].Source, Title: gen[i].Title, Date: gen[i].Date, Text: gen[i].Text()}
	}
	return docs
}

// ingestStoredPassDocs stores storedPassDocs with Platform.Ingest, which
// mines nothing.
func ingestStoredPassDocs(t *testing.T, p *Platform) {
	t.Helper()
	var docs []Document
	for _, d := range storedPassDocs() {
		docs = append(docs, Document{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text})
	}
	if _, err := p.Ingest(docs); err != nil {
		t.Fatal(err)
	}
}

// servedFacts is the number of facts a recovery over p's store serves.
func servedFacts(t *testing.T, p *Platform, m *SentimentMiner) int {
	t.Helper()
	tier, _, err := RecoverServingTier(p, m, ServingTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tier.View().Facts()
}

// TestRunWritesEachFactOnce: Run writes a document's facts back only
// when it carries none yet, so running it twice leaves the store — and
// so what a recovery serves — as one run left it.
func TestRunWritesEachFactOnce(t *testing.T) {
	p := NewPlatform(PlatformConfig{})
	ingestStoredPassDocs(t, p)
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		facts, err := m.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(facts) != 61 {
			t.Fatalf("run %d returned %d facts, want 61", run, len(facts))
		}
		if got := servedFacts(t, p, m); got != len(facts) {
			t.Errorf("after run %d a recovery serves %d facts, want %d", run, got, len(facts))
		}
	}
}

// TestConcurrentRunsWriteEachFactOnce: two Runs at once over one
// platform still leave each document with one copy of its facts.
func TestConcurrentRunsWriteEachFactOnce(t *testing.T) {
	p := NewPlatform(PlatformConfig{})
	ingestStoredPassDocs(t, p)
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			facts, err := m.Run(p)
			if err != nil {
				t.Error(err)
			}
			counts[g] = len(facts)
		}()
	}
	wg.Wait()
	if got := servedFacts(t, p, m); counts[0] != 61 || counts[1] != 61 || got != 61 {
		t.Errorf("two concurrent Runs returned %v facts and a recovery serves %d; want 61 each", counts, got)
	}
}

// TestRunAfterServedIngestAddsNothing: documents the serving tier
// ingested already carry their facts, so Run returns them without
// writing a second copy.
func TestRunAfterServedIngestAddsNothing(t *testing.T) {
	p := NewPlatform(PlatformConfig{})
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewServingTier(p, m, nil)
	if _, _, err := tier.Ingest(context.Background(), storedPassDocs()); err != nil {
		t.Fatal(err)
	}
	served := tier.View().Facts()
	facts, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 61 || served != 61 {
		t.Fatalf("Run returned %d facts, the tier served %d; want 61 both", len(facts), served)
	}
	if got := servedFacts(t, p, m); got != served {
		t.Errorf("a recovery after Run serves %d facts, the tier served %d", got, served)
	}
}

// TestRunAnalyticsTwiceKeepsGeoAnnotations: the geo miner annotates a
// document once; a second RunAnalytics leaves every entity's geo
// annotations as the first left them. The camera reviews name no place,
// so this runs over petroleum pages, which do.
func TestRunAnalyticsTwiceKeepsGeoAnnotations(t *testing.T) {
	gen := corpus.PetroleumWeb(7, 20)
	docs := make([]Document, len(gen))
	for i := range gen {
		docs[i] = Document{ID: gen[i].ID, Date: gen[i].Date, Links: gen[i].Links, Text: gen[i].Text()}
	}
	p := NewPlatform(PlatformConfig{})
	if _, err := p.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	geo := func() map[string][]store.Annotation {
		out := map[string][]store.Annotation{}
		for _, id := range p.internalStore().IDs() {
			e, _ := p.internalStore().Get(id)
			out[id] = e.AnnotationsBy(miners.GeoMinerName)
		}
		return out
	}
	if _, err := p.RunAnalytics(AnalyticsConfig{}); err != nil {
		t.Fatal(err)
	}
	first := geo()
	annotated := 0
	for _, anns := range first {
		if len(anns) > 0 {
			annotated++
		}
	}
	if annotated == 0 {
		t.Fatal("the geo miner annotated no document; the corpus names places")
	}
	if _, err := p.RunAnalytics(AnalyticsConfig{}); err != nil {
		t.Fatal(err)
	}
	if second := geo(); !reflect.DeepEqual(first, second) {
		t.Errorf("a second RunAnalytics changed the geo annotations of %d annotated documents", annotated)
	}
}

// TestRunFailsOnRefusedWriteBack: when the store refuses a write-back
// (here: a durable platform whose log stops taking writes under the
// miner), Run returns an error that names the document and wraps the
// store's failure, and no facts.
func TestRunFailsOnRefusedWriteBack(t *testing.T) {
	var refuse atomic.Bool
	st, err := store.Open(t.TempDir(), store.Options{WrapFile: func(f durable.File) durable.File {
		return refusingWAL{File: f, refuse: &refuse}
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := platformOver(st, PlatformConfig{}.normalized())
	defer p.Close()
	ingestStoredPassDocs(t, p)
	refuse.Store(true)
	ids := p.internalStore().IDs()
	_, storeErr := p.internalStore().Annotate(ids[0], []store.Annotation{{Miner: "probe", Type: "probe"}})
	if storeErr == nil {
		t.Fatal("a store whose log refuses writes accepted an annotation")
	}
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	facts, err := m.Run(p)
	if err == nil || facts != nil {
		t.Fatalf("Run over a store refusing writes = %d facts, err %v; want no facts and an error", len(facts), err)
	}
	if !strings.Contains(err.Error(), "camera-review-") {
		t.Errorf("error names no document: %v", err)
	}
	if !wraps(err, storeErr.Error()) {
		t.Errorf("error %q does not wrap the store's failure %q", err, storeErr)
	}
}

// refusingWAL fails every write once refuse is set.
type refusingWAL struct {
	durable.File
	refuse *atomic.Bool
}

func (w refusingWAL) Write(p []byte) (int, error) {
	if w.refuse.Load() {
		return 0, errors.New("injected write failure")
	}
	return w.File.Write(p)
}

// wraps reports whether an error err wraps, itself excluded, has the
// message msg.
func wraps(err error, msg string) bool {
	var inner []error
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		inner = []error{u.Unwrap()}
	case interface{ Unwrap() []error }:
		inner = u.Unwrap()
	}
	for _, e := range inner {
		if e != nil && (e.Error() == msg || wraps(e, msg)) {
			return true
		}
	}
	return false
}
