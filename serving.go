package webfountain

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"webfountain/internal/durable"
	"webfountain/internal/index"
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
	servingCheckpoints    = metrics.Default().Counter("serving.checkpoints")
	servingCheckpointErrs = metrics.Default().Counter("serving.checkpoint.errors")
	servingRepairedDocs   = metrics.Default().Counter("serving.recovery.repaired.docs")
)

// NewServingGateway mounts the tier's HTTP/JSON API (the /api/*
// endpoints and /healthz of cmd/wfserver) on any mux: result caching,
// per-tenant rate limits and degraded-mode semantics included.
func NewServingGateway(t *ServingTier, cfg ServingGatewayConfig) http.Handler {
	return serve.NewGateway(t, cfg)
}

// ServingTierConfig tunes the tier's durability. The zero value
// disables checkpointing entirely (the PR 9 memory-only behavior).
type ServingTierConfig struct {
	// CheckpointDir, when non-empty, is where the tier persists its
	// aggregate checkpoints — see RecoverServingTier for how they are
	// used at startup.
	CheckpointDir string
	// CheckpointEvery writes a checkpoint every N ingest batches
	// (0: only on Close or an explicit Checkpoint call).
	CheckpointEvery int
	// WrapCheckpoint, when set, wraps the checkpoint temp-file handle —
	// the deterministic disk-fault injector's hook in crash tests.
	WrapCheckpoint durable.Wrap
}

// ServingRecovery describes what RecoverServingTier found and did.
type ServingRecovery struct {
	// CheckpointLoaded reports whether a valid checkpoint was restored
	// (false means a cold start: every document was re-mined).
	CheckpointLoaded bool
	// CheckpointGen is the restored checkpoint's aggregate generation.
	CheckpointGen uint64
	// Quarantined counts checkpoint files that failed verification and
	// were renamed *.corrupt before an older valid one was found.
	Quarantined int
	// RepairedDocs counts the documents mined forward from the
	// watermark — the store held them durably but the checkpoint's
	// aggregates did not include them yet.
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
// Ingest contract: one step per document — stored, indexed, mined and
// annotated before the next document is looked at — so an acked ID is
// always fully served and an unacked one was never half-written by the
// tier; there is no list of documents that owe a write.
//
// Durability contract: with a CheckpointDir configured, the tier
// persists CRC-guarded checkpoints of the aggregate table, the
// query-time sentiment entries and the mined-document watermark.
// RecoverServingTier restores the newest valid checkpoint and mines
// only the documents the durable store holds past the watermark, so a
// crash between a document's durable put and the aggregate publish
// loses nothing: the missing documents are exactly the ones past the
// watermark, and repair folds them in before the tier serves.
type ServingTier struct {
	mu  sync.Mutex // serializes ingest batches, repair and checkpoints
	p   *Platform
	m   *SentimentMiner
	agg *serve.Aggregates
	cfg ServingTierConfig

	// mined holds the IDs of every document whose facts are folded
	// into the aggregates and the sentiment index — the recovery
	// watermark a checkpoint persists.
	mined map[string]struct{}
	// batches counts ingest batches since the last checkpoint.
	batches int
}

func newServingTier(p *Platform, m *SentimentMiner, cfg ServingTierConfig) *ServingTier {
	return &ServingTier{p: p, m: m, agg: serve.NewAggregates(), cfg: cfg, mined: map[string]struct{}{}}
}

// NewServingTier builds the tier over a platform and a miner that has
// already run (facts are Run's output, seeding the aggregates so the
// first query is served from the materialized view, not a corpus scan).
// The tier does not checkpoint; use RecoverServingTier for a tier that
// survives restarts.
func NewServingTier(p *Platform, m *SentimentMiner, facts []SubjectSentiment) *ServingTier {
	t := newServingTier(p, m, ServingTierConfig{})
	t.agg.Apply(t.toFacts(facts))
	for _, id := range p.internalStore().IDs() {
		t.mined[id] = struct{}{}
	}
	return t
}

// RecoverServingTier builds the tier from its durable state: it loads
// the newest valid checkpoint in cfg.CheckpointDir (quarantining
// corrupt ones), restores the aggregate table, the sentiment index and
// the mined-document watermark from it, and then repairs forward by
// mining every document the store holds past the watermark — the
// store's durable doc set is ground truth. Without a usable checkpoint
// the same repair pass simply covers the whole corpus. Repair
// annotates only documents that carry no sentiment annotations yet —
// after a crash between a document's put and annotate records, or for
// documents stored by plain Platform.Ingest — so a crash after the
// annotate but before the checkpoint does not double-annotate on the
// next boot. A fresh checkpoint is written when recovery completes, so
// the next restart starts from here.
func RecoverServingTier(p *Platform, m *SentimentMiner, cfg ServingTierConfig) (*ServingTier, ServingRecovery, error) {
	t := newServingTier(p, m, cfg)
	var rec ServingRecovery
	if cfg.CheckpointDir != "" {
		ck, quarantined, err := serve.LoadCheckpoint(cfg.CheckpointDir)
		rec.Quarantined = quarantined
		if err != nil {
			return nil, rec, err
		}
		if ck != nil {
			rec.CheckpointLoaded = true
			rec.CheckpointGen = ck.View.Generation()
			t.agg = serve.NewAggregatesFrom(ck.View)
			for _, e := range ck.Entries {
				m.restoreSentiment(index.SentimentEntry{
					DocID:    e.Doc,
					Sentence: e.Sentence,
					Subject:  e.Subject,
					Polarity: parsePolarity(e.Polarity),
					Snippet:  e.Snippet,
					Feature:  e.Feature,
				})
			}
			for _, id := range ck.MinedDocs {
				t.mined[id] = struct{}{}
			}
		}
	}
	rec.RepairedDocs = t.repairForward()
	servingRepairedDocs.Add(int64(rec.RepairedDocs))
	if cfg.CheckpointDir != "" {
		// Persist the repaired state immediately: the next crash's
		// recovery starts from this watermark, not the pre-crash one.
		// Best-effort — a failing checkpoint disk must not keep the
		// tier down when the repaired in-memory state is already
		// serving-ready; the error counter records it and the ingest
		// cadence retries.
		t.Checkpoint() //nolint:errcheck
	}
	return t, rec, nil
}

// repairForward mines every stored document not yet behind the
// watermark, in sorted ID order so two recoveries of the same store
// converge to identical aggregates and generations. Each repaired
// document gets its own aggregate publish: the generation strictly
// grows past every batch the crash erased, so a cached client can
// never observe the generation move backwards across a restart. A
// document whose annotate is refused (degraded store) stays outside the
// watermark for the next boot, exactly as at ingest.
func (t *ServingTier) repairForward() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.p.internalStore()
	ids := st.IDs()
	sort.Strings(ids)
	repaired := 0
	for _, id := range ids {
		if _, ok := t.mined[id]; ok {
			continue
		}
		var text, date string
		annotated := false
		if !st.View(id, func(e *store.Entity) {
			text, date = e.Text, e.Date
			annotated = len(e.AnnotationsBy(MinerName)) > 0
		}) {
			continue
		}
		mined, err := t.mine(id, text, nil, annotated)
		if err != nil {
			continue
		}
		t.agg.Apply(t.fold(nil, id, date, mined))
		repaired++
	}
	return repaired
}

// mine is the tier's one mining step, shared by ingest and recovery:
// analyze the document (over the caller's tokens, when it has them) and
// write the facts back onto the stored entity as annotations, unless it
// already carries them. A refused annotate (degraded store) fails the
// document.
func (t *ServingTier) mine(id, text string, toks []tokenize.Token, annotated bool) ([]SubjectSentiment, error) {
	mined := t.m.analyzeEntity(id, text, toks)
	if len(mined) > 0 && !annotated {
		if _, err := t.p.internalStore().Annotate(id, annotationsOf(mined)); err != nil {
			return nil, fmt.Errorf("webfountain: serving annotate %s: %w", id, err)
		}
	}
	return mined, nil
}

// fold puts one mined document behind the watermark: its facts enter
// the sentiment index and are appended, dated, to dst for the aggregate
// publish.
func (t *ServingTier) fold(dst []serve.Fact, id, date string, mined []SubjectSentiment) []serve.Fact {
	t.m.indexFacts(mined)
	t.mined[id] = struct{}{}
	for _, f := range mined {
		dst = append(dst, aggFact(f, date))
	}
	return dst
}

// aggFact dates one mined fact for the aggregates' time-bucket dimension.
func aggFact(f SubjectSentiment, date string) serve.Fact {
	return serve.Fact{Subject: f.Subject, Feature: f.Feature, Date: date, Positive: f.Polarity == Positive}
}

// Checkpoint persists the tier's current state — aggregate table,
// sentiment entries and mined-document watermark — atomically into the
// configured checkpoint directory.
func (t *ServingTier) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpointLocked()
}

func (t *ServingTier) checkpointLocked() error {
	if t.cfg.CheckpointDir == "" {
		return errors.New("webfountain: serving tier has no checkpoint directory")
	}
	all := t.m.sidx.All()
	entries := make([]serve.Entry, 0, len(all))
	for _, e := range all {
		entries = append(entries, serve.Entry{
			Subject:  e.Subject,
			Polarity: Polarity(e.Polarity).String(),
			Doc:      e.DocID,
			Sentence: e.Sentence,
			Snippet:  e.Snippet,
			Feature:  e.Feature,
		})
	}
	ck := &serve.Checkpoint{View: t.agg.View(), Entries: entries, MinedDocs: sortedSet(t.mined)}
	if _, err := serve.WriteCheckpoint(t.cfg.CheckpointDir, ck, t.cfg.WrapCheckpoint); err != nil {
		servingCheckpointErrs.Inc()
		return err
	}
	servingCheckpoints.Inc()
	t.batches = 0
	return nil
}

// Close persists a final checkpoint (graceful shutdown). A tier
// without a checkpoint directory closes as a no-op.
func (t *ServingTier) Close() error {
	if t.cfg.CheckpointDir == "" {
		return nil
	}
	return t.Checkpoint()
}

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
// query-time sentiment index (serve.Backend). An already-expired
// request deadline short-circuits to an empty answer.
func (t *ServingTier) Entries(ctx context.Context, subject string) []serve.Entry {
	if ctx != nil && ctx.Err() != nil {
		return nil
	}
	facts := t.m.Query(subject)
	out := make([]serve.Entry, 0, len(facts))
	for _, f := range facts {
		out = append(out, serve.Entry{
			Subject:  f.Subject,
			Polarity: f.Polarity.String(),
			Doc:      f.DocID,
			Sentence: f.Sentence,
			Snippet:  f.Snippet,
			Feature:  f.Feature,
		})
	}
	return out
}

// Ingest implements serve.Backend's online write path: Platform's
// ingest loop with the miner riding each document's step — stored,
// indexed, analyzed over the index's own tokens and annotated onto the
// entity (so the offline trend miner sees the facts too) before the
// next document is touched. When the loop returns, the acked prefix is
// folded in input order into the sentiment index and the aggregates —
// the generation bump that invalidates every cached response. Batches
// are serialized.
//
// The context carries the request deadline, checked before each
// document. A deadline that expires before document k, or a store that
// refuses document k's put or annotate, ends the batch there: ids[:k]
// are stored, mined and visible, the error names document k (and
// unwraps to context.DeadlineExceeded or the store's error), and the
// client resends the rest. With IngestWorkers 1 nothing past k reached
// the store; with more, documents already claimed when the cut came
// complete their step but stay outside the watermark (Platform.Ingest's
// caveat) until a resend or the next boot's repair folds them in.
func (t *ServingTier) Ingest(ctx context.Context, docs []serve.Doc) ([]string, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	batch := make([]Document, len(docs))
	for i, d := range docs {
		batch[i] = Document{
			ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text,
		}
	}
	mined := make([][]SubjectSentiment, len(docs))
	ids, err := t.p.ingest(ctx, batch, func(i int, id string, toks []tokenize.Token) (err error) {
		mined[i], err = t.mine(id, batch[i].Text, toks, false)
		return err
	})
	var facts []serve.Fact
	for i, id := range ids {
		facts = t.fold(facts, id, batch[i].Date, mined[i])
	}
	// Publish even an empty successful batch: the corpus changed, so
	// cached responses keyed on the old generation must re-render. A
	// batch that acked nothing and failed changed nothing — skipping
	// its publish keeps the generation meaningful across recovery
	// (recovery replays documents, not failed attempts).
	if len(ids) > 0 || err == nil {
		t.agg.Apply(facts)
		t.batches++
		if t.cfg.CheckpointDir != "" && t.cfg.CheckpointEvery > 0 &&
			t.batches >= t.cfg.CheckpointEvery {
			// Best-effort: a failed checkpoint must not fail an acked
			// ingest; the error counter records it and the cadence
			// retries on the next batch.
			t.checkpointLocked() //nolint:errcheck
		}
	}
	return ids, len(facts), err
}

// parsePolarity inverts Polarity.String.
func parsePolarity(s string) int {
	switch s {
	case "+":
		return int(Positive)
	case "-":
		return int(Negative)
	}
	return int(Neutral)
}

// sortedSet returns a set's keys, sorted.
func sortedSet(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
