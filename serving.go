package webfountain

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"sync"

	"webfountain/internal/metrics"
	"webfountain/internal/serve"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

// Aliases re-exporting the serving tier's wire and config types, so
// library users can drive ServingTier and mount its gateway without
// importing internal/serve (which the internal rule forbids outside
// this module).
type (
	// ServingDoc is one document submitted to ServingTier.Ingest.
	ServingDoc = serve.Doc
	// ServingEntry is one sentiment-bearing mention as served.
	ServingEntry = serve.Entry
	// ServingView is an immutable aggregate snapshot.
	ServingView = serve.View
	// ServingGatewayConfig tunes NewServingGateway.
	ServingGatewayConfig = serve.GatewayConfig
)

var (
	servingFoldedDocs   = metrics.Default().Counter("serving.recovery.folded.docs")
	servingRepairedDocs = metrics.Default().Counter("serving.recovery.repaired.docs")
	servingRecoverNs    = metrics.Default().Histogram("serving.recover.ns")
	platformOpenNs      = metrics.Default().Histogram("platform.open.ns")
	minerNewNs          = metrics.Default().Histogram("miner.new.ns")
	servingGeneration   = metrics.Default().Gauge("serving.generation")
	servingSubjects     = metrics.Default().Gauge("serving.subjects")
	servingEntries      = metrics.Default().Gauge("serving.entries")
)

// NewServingGateway mounts the tier's HTTP/JSON API (the /api/*
// endpoints and /healthz of cmd/wfserver) on any mux: result caching,
// per-tenant rate limits and degraded-mode semantics included.
func NewServingGateway(t *ServingTier, cfg ServingGatewayConfig) http.Handler {
	return serve.NewGateway(t, cfg)
}

// ServingTierConfig is what is left of the tier's own persistence: the
// tier keeps no files — the store is its checkpoint — and both fields
// are accepted only so existing callers keep compiling.
type ServingTierConfig struct {
	// Deprecated: ignored. No checkpoint is written or read.
	CheckpointDir string
	// Deprecated: ignored.
	CheckpointEvery int
}

// ServingRecovery describes what RecoverServingTier did.
type ServingRecovery struct {
	// FoldedDocs counts the documents whose facts were rebuilt from
	// their stored annotations, without mining.
	FoldedDocs int
	// RepairedDocs counts the documents that were mined: stored without
	// sentiment annotations (a crash between the put and annotate
	// records, plain Platform.Ingest, or simply no sentiment in them) or
	// with annotations that do not carry a whole fact.
	RepairedDocs int
}

// ServingTier is the live serving tier over a mined platform: it keeps
// the materialized sentiment aggregates (per subject × feature ×
// polarity × time bucket) in lock-step with the corpus, mining new
// documents online at ingest instead of re-running the batch miner. It
// implements serve.Backend, so serve.NewGateway(tier, cfg) is the whole
// HTTP serving stack.
//
// Consistency contract: Ingest publishes a new aggregate snapshot (and
// bumps the cache-invalidation generation) before it returns, so a
// query issued after an ingest batch acks can never observe aggregates
// staler than that batch. Queries concurrent with an in-flight batch
// may see the previous snapshot — a staleness bound of exactly one
// batch.
//
// Ingest contract: analyze, then commit once — every document of the
// acked prefix is mined first, and the prefix is then stored with its
// annotations as one store commit, durable before it is applied — so an
// acked ID is always durable and fully served, an unacked one is not in
// the store, and there is no list of documents that owe a write.
//
// Durability contract: the tier has no files of its own. A document's
// annotate record carries its whole facts, so the store's write-ahead
// log is the only durable copy and RecoverServingTier rebuilds the tier
// from it. A crash that tears a commit leaves on disk a prefix of its
// records — unacked, never applied before the crash: recovery folds the
// documents that came with their annotate records and mines one stored
// without it.
type ServingTier struct {
	mu  sync.Mutex // serializes ingest batches
	p   *Platform
	m   *SentimentMiner
	agg *serve.Aggregates
	// facts is the buffer a batch's facts are gathered in for
	// Aggregates.Apply, which copies them. Guarded by mu; cleared after
	// each Apply, so it keeps no document alive, and dropped when it
	// outgrows maxKeptFacts.
	facts []serve.Fact
}

func newServingTier(p *Platform, m *SentimentMiner) *ServingTier {
	return &ServingTier{p: p, m: m, agg: serve.NewAggregates()}
}

// OpenServing boots a serving node, the one boot behind cmd/wfserver and
// cmd/wfnode: the platform (durable under cfg.DataDir when it is set,
// in memory otherwise), the default sentiment miner, and the tier
// recovered from what the store holds (RecoverServingTier). An empty
// store is then seeded with seed's documents through the tier's own
// ingest, as one batch, so seed documents are mined and annotated by the
// same step as live ones; seed is called only then, and may be nil. On
// error nothing is left open.
//
// Each boot records its phases in the default metrics registry:
// platform.open.ns (store open and WAL replay), miner.new.ns (the
// miner's lexicon, pattern database and tagger) and serving.recover.ns.
func OpenServing(cfg PlatformConfig, seed func() ([]ServingDoc, error)) (*Platform, *ServingTier, ServingRecovery, error) {
	var p *Platform
	span := platformOpenNs.Start()
	if cfg.DataDir == "" {
		p = NewPlatform(cfg)
	} else {
		var err error
		if p, err = OpenPlatform(cfg); err != nil {
			return nil, nil, ServingRecovery{}, err
		}
	}
	span.End()
	fail := func(err error) (*Platform, *ServingTier, ServingRecovery, error) {
		p.Close()
		return nil, nil, ServingRecovery{}, err
	}
	span = minerNewNs.Start()
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		return fail(err)
	}
	span.End()
	t, rec, err := RecoverServingTier(p, m, ServingTierConfig{})
	if err != nil {
		return fail(err)
	}
	if p.NumEntities() == 0 && seed != nil {
		docs, err := seed()
		if err != nil {
			return fail(err)
		}
		if len(docs) > 0 {
			if _, _, err := t.Ingest(context.Background(), docs); err != nil {
				return fail(err)
			}
		}
	}
	return p, t, rec, nil
}

// NewServingTier builds the tier over a platform and a miner that has
// already run (facts are Run's output, seeding the aggregates so the
// first query is served from the materialized view, not a corpus scan).
func NewServingTier(p *Platform, m *SentimentMiner, facts []SubjectSentiment) *ServingTier {
	t := newServingTier(p, m)
	t.agg.Apply(t.toFacts(facts))
	t.published()
	return t
}

// RecoverServingTier builds the tier from what the store holds, in one
// pass over its documents in sorted-ID order (mineStored, so two
// recoveries of one store are identical): a document stored with its
// facts is folded — the facts are read back from its annotations,
// nothing is mined — and any other document is analyzed and, only if it
// carries no sentiment annotations yet, annotated. One aggregate publish
// follows, its generation advanced by the number of documents recovered.
// A document whose annotate is refused (degraded store) stays out, for
// the next boot. The config is ignored and the error is always nil; both
// remain for existing callers.
func RecoverServingTier(p *Platform, m *SentimentMiner, _ ServingTierConfig) (*ServingTier, ServingRecovery, error) {
	span := servingRecoverNs.Start()
	t := newServingTier(p, m)
	type recovered struct {
		staged serve.Staged
		folded bool
	}
	docs := mineStored(p, MinerName, func(e *store.Entity, annotated bool) (recovered, []store.Annotation) {
		mined, folded := storedFacts(e)
		if !folded {
			mined = m.analyzeEntity(e.ID, e.Text, nil)
		}
		// The facts are staged at once: e is decoded from the log, and a
		// fact cut from it would keep its whole record alive.
		r := recovered{serve.Stage(fold(nil, e.Date, mined)), folded}
		if folded || annotated {
			return r, nil
		}
		return r, annotationsOf(mined)
	})
	var rec ServingRecovery
	staged := make([]serve.Staged, 0, len(docs))
	for _, d := range docs {
		if !d.ok || d.err != nil {
			continue
		}
		if d.res.folded {
			rec.FoldedDocs++
		} else {
			rec.RepairedDocs++
		}
		staged = append(staged, d.res.staged)
	}
	t.agg.ApplyRecovered(staged)
	t.published()
	servingFoldedDocs.Add(int64(rec.FoldedDocs))
	servingRepairedDocs.Add(int64(rec.RepairedDocs))
	span.End()
	return t, rec, nil
}

// fold appends one document's facts, dated, to dst for the aggregate
// publish.
func fold(dst []serve.Fact, date string, mined []SubjectSentiment) []serve.Fact {
	dst = slices.Grow(dst, len(mined))
	for _, f := range mined {
		dst = append(dst, aggFact(f, date))
	}
	return dst
}

// published reports the snapshot just published to the gauges.
func (t *ServingTier) published() {
	v := t.agg.View()
	servingGeneration.Set(int64(v.Generation()))
	servingSubjects.Set(int64(len(v.Subjects())))
	servingEntries.Set(int64(v.Facts()))
}

// aggFact dates one mined fact for the aggregates' time-bucket dimension.
func aggFact(f SubjectSentiment, date string) serve.Fact {
	return serve.Fact{Subject: f.Subject, Feature: f.Feature, Date: date, Positive: f.Polarity == Positive,
		Doc: f.DocID, Sentence: f.Sentence, Snippet: f.Snippet}
}

// Checkpoint does nothing: the tier keeps no files.
//
// Deprecated: kept for callers that still time it.
func (t *ServingTier) Checkpoint() error { return nil }

// Close does nothing: the tier keeps no files and owns no goroutine;
// closing the platform flushes the store.
func (t *ServingTier) Close() error { return nil }

// toFacts converts mined facts to aggregate facts, resolving each
// document's publication date for the time-bucket dimension.
func (t *ServingTier) toFacts(facts []SubjectSentiment) []serve.Fact {
	dates := map[string]string{}
	out := make([]serve.Fact, 0, len(facts))
	for _, f := range facts {
		date, ok := dates[f.DocID]
		if !ok {
			if e, found := t.p.Entity(f.DocID); found {
				date = e.Date
			}
			dates[f.DocID] = date
		}
		out = append(out, aggFact(f, date))
	}
	return out
}

// View returns the current aggregate snapshot (serve.Backend).
func (t *ServingTier) View() *serve.View { return t.agg.View() }

// NumDocs returns the number of stored documents (serve.Backend).
func (t *ServingTier) NumDocs() int { return t.p.NumEntities() }

// Degraded reports the store's degraded read-only mode (serve.Backend).
func (t *ServingTier) Degraded() (bool, string) { return t.p.Degraded() }

// Entries returns a subject's sentiment-bearing mentions from the
// current snapshot: View().Entries(subject). The context is unused.
func (t *ServingTier) Entries(_ context.Context, subject string) []serve.Entry {
	return t.agg.View().Entries(subject)
}

// Ingest implements serve.Backend's online write path: Platform's
// ingest loop with the miner riding each document's analysis step —
// sanitized, analyzed (over the inverted index's tokens when a search
// has built it) and turned into the annotations that carry its facts —
// and then the acked prefix stored with those annotations as one store
// commit (one write-ahead-log sync for the batch). Once the commit is
// durable and applied, the prefix is folded in input order into the
// aggregates, entries included — one publish, the generation bump that
// invalidates every cached response. Batches are serialized, and the
// tier itself touches no file: the store's put and annotate records
// are all a batch writes.
//
// The context carries the request deadline, checked before each
// document. A deadline that expires before document k ends the batch
// there: ids[:k] are stored, mined and visible, the error names document
// k and unwraps to context.DeadlineExceeded, nothing past k reached the
// store, and the client resends the rest. A refused commit (degraded
// store) acks nothing: no ID is returned, nothing of the batch is stored
// or served, and the error unwraps to the store's. The tier then equals
// an offline fold of the store after every batch, whatever the number
// of ingest workers.
func (t *ServingTier) Ingest(ctx context.Context, docs []serve.Doc) ([]string, int, error) {
	batch := make([]Document, len(docs))
	for i, d := range docs {
		batch[i] = Document{
			ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text,
		}
	}
	return t.ingest(ctx, batch)
}

// ingest is Ingest over platform documents: the loop behind the gateway
// and the node's store service alike. Each document's facts are mined
// into its worker's arena and leave it once, as the annotations the
// store keeps; the aggregate facts of the acked prefix are read back
// from those annotations, in one slice for the batch.
func (t *ServingTier) ingest(ctx context.Context, batch []Document) ([]string, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	anns := make([][]store.Annotation, len(batch))
	texts := make([]string, len(batch))
	ids, err := t.p.ingest(ctx, batch, func(ia *ingestArena, i int, id, text string, toks []tokenize.Token) []store.Annotation {
		ia.facts = t.m.appendFacts(ia.facts[:0], id, text, toks)
		anns[i], texts[i] = annotationsOf(ia.facts), text
		clear(ia.facts) // drop the arena's references to this document
		return anns[i]
	})
	n := 0
	for i := range ids {
		n += len(anns[i])
	}
	facts := slices.Grow(t.facts[:0], n)
	for i, id := range ids {
		for k := range anns[i] {
			facts = append(facts, annotationFact(&anns[i][k], id, batch[i].Date, texts[i]))
		}
	}
	// Publish even an empty successful batch: the corpus changed, so
	// cached responses keyed on the old generation must re-render. A
	// batch that acked nothing and failed changed nothing — skipping
	// its publish keeps the generation meaningful across recovery
	// (recovery replays documents, not failed attempts).
	if len(ids) > 0 || err == nil {
		t.agg.Apply(facts)
		t.published()
	}
	clear(facts)
	if cap(facts) <= maxKeptFacts {
		t.facts = facts[:0]
	}
	return ids, len(facts), err
}

// maxKeptFacts bounds the facts buffer a tier keeps between batches, at
// about 800 KB; a larger batch's buffer is left to the collector.
const maxKeptFacts = 8192

// annotationFact is the aggregate fact one of annotationsOf's
// annotations carries, for the document id of the given date and
// stored text: what aggFact makes of the mined fact it was built from.
func annotationFact(a *store.Annotation, id, date, text string) serve.Fact {
	return serve.Fact{Subject: a.Key, Feature: a.Feature, Date: date, Positive: a.Value == Positive.String(),
		Doc: id, Sentence: a.Sentence, Snippet: text[a.Start:a.End]}
}

// ServingStore is the entity-store surface of a serving node, as a
// remote store service serves it: reads come from the platform's store,
// annotations included, and writes go through the tier, so what a
// remote client puts is mined, indexed and served like any other
// ingest.
type ServingStore struct{ t *ServingTier }

// Store returns the tier's entity-store surface.
func (t *ServingTier) Store() ServingStore { return ServingStore{t} }

// Get returns a stored entity with its annotations.
func (s ServingStore) Get(id string) (*store.Entity, bool) { return s.t.p.store.Get(id) }

// Put ingests one entity through the tier as a one-document batch. Its
// annotations are dropped: the stored ones are the miner's. A put of an
// ID already stored behaves as a resend to the tier's Ingest does.
func (s ServingStore) Put(e *store.Entity) error {
	if e.ID == "" {
		return errors.New("webfountain: put of an entity without an ID")
	}
	_, _, err := s.t.ingest(context.Background(), []Document{{
		ID: e.ID, URL: e.URL, Source: e.Source, Title: e.Title, Date: e.Date, Links: e.Links, Text: e.Text,
	}})
	return err
}

// Delete removes a document from the store and the index
// (Platform.Delete). Its served entries stay in the aggregates.
func (s ServingStore) Delete(id string) error { return s.t.p.Delete(id) }

// Len returns the number of stored documents.
func (s ServingStore) Len() int { return s.t.p.NumEntities() }

// IDs returns every stored document ID, sorted.
func (s ServingStore) IDs() []string { return s.t.p.store.IDs() }
