package webfountain

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"webfountain/internal/corpus"
	"webfountain/internal/metrics"
	"webfountain/internal/serve"
)

// newServingFixture ingests a generated corpus, runs the batch miner
// and wraps the result in a serving tier.
func newServingFixture(t *testing.T, docs int) (*ServingTier, *Platform, *SentimentMiner) {
	t.Helper()
	generated := corpus.PharmaWeb(3, docs)
	batch := make([]Document, len(generated))
	for i := range generated {
		batch[i] = Document{
			ID: generated[i].ID, Source: generated[i].Source,
			Title: generated[i].Title, Date: generated[i].Date,
			Text: generated[i].Text(),
		}
	}
	p := NewPlatform(PlatformConfig{})
	if _, err := p.Ingest(batch); err != nil {
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
	return NewServingTier(p, m, facts), p, m
}

// TestServingTierSeededFromRun: the tier's materialized view must agree
// with the sentiment index the batch run built — same subjects, same
// counts — so the first query is served from the view with no scan.
func TestServingTierSeededFromRun(t *testing.T) {
	tier, _, m := newServingFixture(t, 30)
	v := tier.View()
	if v.Generation() != 1 {
		t.Fatalf("seed generation = %d", v.Generation())
	}
	subjects := m.Subjects()
	if len(subjects) == 0 {
		t.Fatal("no mined subjects")
	}
	if got := v.Subjects(); !reflect.DeepEqual(got, subjects) {
		t.Fatalf("view subjects %v != index subjects %v", got, subjects)
	}
	for _, s := range subjects {
		pos, neg := m.Counts(s)
		if c := v.Counts(s); c.Positive != pos || c.Negative != neg {
			t.Errorf("%s: view counts %+v != index counts (%d, %d)", s, c, pos, neg)
		}
	}
}

// TestServingTierOnlineMatchesOffline: ingesting the same corpus one
// batch at a time through the live tier must materialize exactly the
// aggregates a batch run would have produced — the online maintenance
// path is the offline computation, incrementalized.
func TestServingTierOnlineMatchesOffline(t *testing.T) {
	const docs = 30
	offline, _, _ := newServingFixture(t, docs)

	generated := corpus.PharmaWeb(3, docs)
	p := NewPlatform(PlatformConfig{})
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	online := NewServingTier(p, m, nil)
	for i := range generated {
		_, _, err := online.Ingest(context.Background(), []serve.Doc{{
			ID: generated[i].ID, Source: generated[i].Source,
			Title: generated[i].Title, Date: generated[i].Date,
			Text: generated[i].Text(),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}

	ov, nv := offline.View(), online.View()
	if !reflect.DeepEqual(ov.Subjects(), nv.Subjects()) {
		t.Fatalf("subjects differ: offline %v online %v", ov.Subjects(), nv.Subjects())
	}
	if ov.Totals() != nv.Totals() {
		t.Fatalf("totals differ: offline %+v online %+v", ov.Totals(), nv.Totals())
	}
	for _, s := range ov.Subjects() {
		if ov.Counts(s) != nv.Counts(s) {
			t.Errorf("%s counts differ: offline %+v online %+v", s, ov.Counts(s), nv.Counts(s))
		}
		if !reflect.DeepEqual(ov.Series(s), nv.Series(s)) {
			t.Errorf("%s series differ:\noffline %+v\nonline  %+v", s, ov.Series(s), nv.Series(s))
		}
		if !reflect.DeepEqual(ov.Aspects(s), nv.Aspects(s)) {
			t.Errorf("%s aspects differ", s)
		}
	}
}

// TestServingTierMaterializedSeriesMatchesTrendMiner: the online
// annotations written at ingest must feed the offline trend miner the
// same data the materialized view serves — the scan path and the
// aggregate path agree, they just pay wildly different query costs.
func TestServingTierMaterializedSeriesMatchesTrendMiner(t *testing.T) {
	const docs = 30
	generated := corpus.PharmaWeb(3, docs)
	p := NewPlatform(PlatformConfig{})
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewServingTier(p, m, nil)
	for i := range generated {
		if _, _, err := tier.Ingest(context.Background(), []serve.Doc{{
			ID: generated[i].ID, Date: generated[i].Date, Text: generated[i].Text(),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	v := tier.View()
	checked := 0
	for _, s := range v.Subjects() {
		series, _, ok := p.SentimentTrend(s)
		if !ok && len(v.Series(s)) < 2 {
			continue // not enough data for the trend miner to report
		}
		checked++
		mat := v.Series(s)
		if len(series) != len(mat) {
			t.Fatalf("%s: trend miner %d buckets, view %d", s, len(series), len(mat))
		}
		for i := range series {
			if series[i].Month != mat[i].Month ||
				series[i].Positive != mat[i].Positive ||
				series[i].Negative != mat[i].Negative {
				t.Fatalf("%s bucket %d: trend %+v view %+v", s, i, series[i], mat[i])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no subject had trend data to cross-check")
	}
}

// TestServingTierIngestFreshness: after Ingest returns, the new batch's
// facts are visible — generation bumped, subject present, entries
// served — proving a post-ingest query is never staler than one batch.
func TestServingTierIngestFreshness(t *testing.T) {
	tier, _, _ := newServingFixture(t, 10)
	for i := 0; i < 5; i++ {
		subject := fmt.Sprintf("ZX%d00", i+1) // a fresh model name per batch
		text := fmt.Sprintf("The %s takes excellent pictures. The %s is disappointing in low light.",
			subject, subject)
		before := tier.View().Generation()
		ids, facts, err := tier.Ingest(context.Background(), []serve.Doc{{
			Title: subject, Date: fmt.Sprintf("2004-%02d-10", i+1), Text: text,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 {
			t.Fatalf("batch %d ids = %v", i, ids)
		}
		if facts == 0 {
			t.Fatalf("batch %d mined no facts", i)
		}
		v := tier.View()
		if v.Generation() != before+1 {
			t.Fatalf("batch %d generation %d -> %d", i, before, v.Generation())
		}
		c := v.Counts(subject)
		if c.Total() == 0 {
			t.Fatalf("batch %d: subject %s not aggregated after ack", i, subject)
		}
		if len(tier.Entries(context.Background(), subject)) == 0 {
			t.Fatalf("batch %d: no entries for %s after ack", i, subject)
		}
		if n := len(v.Entries(subject)); n != c.Total() {
			t.Fatalf("batch %d: view counts %+v but lists %d entries", i, c, n)
		}
		if len(v.Series(subject)) == 0 {
			t.Fatalf("batch %d: no time bucket for dated doc", i)
		}
	}
}

// TestServingTierConcurrentReadsDuringIngest hammers lock-free readers
// while batches land, under -race: every observed snapshot must be
// internally coherent and generations must never go backwards.
func TestServingTierConcurrentReadsDuringIngest(t *testing.T) {
	tier, _, _ := newServingFixture(t, 10)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tier.View()
				if v.Generation() < lastGen {
					t.Errorf("generation went backwards: %d -> %d", lastGen, v.Generation())
					return
				}
				lastGen = v.Generation()
				sum := serve.Counts{}
				for _, s := range v.Subjects() {
					c := v.Counts(s)
					sum.Positive += c.Positive
					sum.Negative += c.Negative
				}
				if sum != v.Totals() {
					t.Errorf("torn snapshot: %+v != %+v", sum, v.Totals())
					return
				}
				tier.Entries(context.Background(), "medicure")
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, _, err := tier.Ingest(context.Background(), []serve.Doc{{
			Date: "2004-06-15",
			Text: fmt.Sprintf("The QX%d10 takes excellent pictures.", i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestServingEntriesMatchTheirGeneration: Entries answers from the
// published snapshot, so a reader that sees one generation on both sides
// of the call gets exactly the entries that generation counts — never
// part of a batch the View has not published yet.
func TestServingEntriesMatchTheirGeneration(t *testing.T) {
	const subject = "dvd"
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewServingTier(NewPlatform(PlatformConfig{}), m, nil)
	var docs []serve.Doc
	for _, d := range corpus.DigitalCameraReviews(11, 1200) {
		docs = append(docs, serve.Doc{ID: d.ID, Date: d.Date, Text: d.Text()})
	}
	var (
		wg          sync.WaitGroup
		stop        = make(chan struct{})
		reads, torn atomic.Int64
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tier.View()
				n := len(tier.Entries(context.Background(), subject))
				if tier.View().Generation() == v.Generation() {
					reads.Add(1)
					if n != v.Counts(subject).Total() {
						torn.Add(1)
					}
				}
			}
		}()
	}
	for len(docs) > 0 {
		k := min(16, len(docs))
		if _, _, err := tier.Ingest(context.Background(), docs[:k]); err != nil {
			t.Error(err)
			break
		}
		docs = docs[k:]
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 || tier.View().Counts(subject).Total() == 0 {
		t.Fatalf("%d reads at one generation, %d %q facts: nothing was checked", reads.Load(), tier.View().Counts(subject).Total(), subject)
	}
	if torn.Load() > 0 {
		t.Errorf("%d of %d reads at one generation listed a different number of %q entries than that generation counts",
			torn.Load(), reads.Load(), subject)
	}
}

// TestOpenServingRecordsBootPhases: a boot records one sample of each
// phase it decomposes into — opening the store and replaying its WAL,
// building the miner, recovering the tier — so wfserver's boot line can
// read them back.
func TestOpenServingRecordsBootPhases(t *testing.T) {
	phases := []string{"platform.open.ns", "miner.new.ns", "serving.recover.ns"}
	before := make([]metrics.HistogramSnapshot, len(phases))
	for i, name := range phases {
		before[i] = metrics.Default().Histogram(name).Snapshot()
	}
	p, _, _, err := OpenServing(PlatformConfig{DataDir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, name := range phases {
		after := metrics.Default().Histogram(name).Snapshot()
		if n := after.Count - before[i].Count; n != 1 {
			t.Errorf("%s: %d samples from one boot, want 1", name, n)
		}
		if after.Sum <= before[i].Sum {
			t.Errorf("%s: boot recorded no time (sum %d → %d)", name, before[i].Sum, after.Sum)
		}
	}
}
