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
// Durability contract: with a CheckpointDir configured, the tier
// persists CRC-guarded checkpoints of the aggregate table, the
// query-time sentiment entries and the mined-document watermark.
// RecoverServingTier restores the newest valid checkpoint and re-mines
// only the documents the durable store holds past the watermark, so a
// crash between a durable Platform.Ingest ack and the aggregate
// publish loses nothing: the missing documents are exactly the ones
// past the watermark, and repair folds them in before the tier serves.
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
	// pendingMine holds stored (durably acked) documents not yet
	// mined: the suffix of a batch whose request deadline expired
	// mid-mine. The next batch drains it; recovery repairs it.
	pendingMine []string
	// pendingAnn holds mined documents whose entity annotation was
	// refused (degraded store) — an annotation debt settled by
	// recovery once the store accepts writes again.
	pendingAnn map[string]struct{}
	// batches counts ingest batches since the last checkpoint.
	batches int
}

func newServingTier(p *Platform, m *SentimentMiner, cfg ServingTierConfig) *ServingTier {
	return &ServingTier{
		p: p, m: m, agg: serve.NewAggregates(), cfg: cfg,
		mined:      map[string]struct{}{},
		pendingAnn: map[string]struct{}{},
	}
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
// annotates only documents that carry no sentiment annotations yet, so
// a crash after the annotate but before the checkpoint does not
// double-annotate on the next boot. A fresh checkpoint is written when
// recovery completes, so the next restart starts from here.
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
			for _, id := range ck.PendingAnnotate {
				t.pendingAnn[id] = struct{}{}
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
// never observe the generation move backwards across a restart. It then
// retries the annotation debt: documents whose facts are already folded
// in but whose entity annotation a degraded store refused.
func (t *ServingTier) repairForward() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.p.internalStore().IDs()
	sort.Strings(ids)
	repaired := 0
	for _, id := range ids {
		if _, ok := t.mined[id]; ok {
			continue
		}
		if facts, ok, _ := t.fold(id, false); ok {
			t.agg.Apply(facts)
			repaired++
		}
	}
	for _, id := range sortedSet(t.pendingAnn) {
		t.fold(id, true) //nolint:errcheck // a refusal stays recorded as debt
	}
	return repaired
}

// fold is the tier's one mining step, shared by ingest, the mine-debt
// drain and recovery: view the stored document, analyze it, annotate
// the entity only if it carries no sentiment annotations yet (a crash
// may have landed the annotate without the checkpoint), and return the
// dated facts for the aggregate publish. A refused annotate (degraded
// store) is recorded as annotation debt and returned as the error; the
// facts are still valid. found is false when the store no longer holds
// the document.
//
// settled selects the annotation-debt retry: the document's facts are
// already in the sentiment index and the aggregates, so they are
// re-derived from the text (the analyzer is deterministic) without
// being indexed again, and the caller drops them.
func (t *ServingTier) fold(id string, settled bool) (facts []serve.Fact, found bool, err error) {
	var text, date string
	annotated := false
	st := t.p.internalStore()
	found = st.View(id, func(e *store.Entity) {
		text, date = e.Text, e.Date
		annotated = len(e.AnnotationsBy(MinerName)) > 0
	})
	delete(t.pendingAnn, id)
	if !found {
		return nil, false, nil
	}
	var mined []SubjectSentiment
	if settled {
		mined = t.m.analyzeEntity(id, text)
	} else {
		mined = t.m.MineDocument(id, text)
		t.mined[id] = struct{}{}
	}
	if len(mined) > 0 && !annotated {
		if _, aerr := st.Annotate(id, annotationsOf(mined)); aerr != nil {
			t.pendingAnn[id] = struct{}{}
			err = fmt.Errorf("webfountain: serving annotate %s: %w", id, aerr)
		}
	}
	return datedFacts(mined, date), true, err
}

// Checkpoint persists the tier's current state — aggregate table,
// sentiment entries, mined-document watermark and annotation debt —
// atomically into the configured checkpoint directory.
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
	ck := &serve.Checkpoint{
		View:            t.agg.View(),
		Entries:         entries,
		MinedDocs:       sortedSet(t.mined),
		PendingAnnotate: sortedSet(t.pendingAnn),
	}
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
		out = append(out, serve.Fact{
			Subject:  f.Subject,
			Feature:  f.Feature,
			Date:     date,
			Positive: f.Polarity == Positive,
		})
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

// Ingest implements serve.Backend's online write path: the documents
// are stored and indexed, each one is mined as it lands (facts go to
// the query-time sentiment index and are annotated onto the entity, so
// the offline trend miner sees them too), and the batch's facts are
// folded into the aggregates — the generation bump that invalidates
// every cached response. Batches are serialized; on a partial ingest
// failure the successfully-ingested prefix is still mined and
// published, matching Platform.Ingest's prefix semantics, and every
// failure along the way (store refusal, annotate refusal, expired
// deadline) is reported joined rather than first-wins.
//
// The context carries the request deadline. A deadline that expires
// mid-batch stops the mining, not the durability: the remaining
// documents are already stored (acked) and are queued as mine-debt
// that the next batch — or crash recovery — folds in.
func (t *ServingTier) Ingest(ctx context.Context, docs []serve.Doc) ([]string, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("webfountain: serving ingest: %w", err)
	}
	var errs []error
	var facts []serve.Fact

	// Drain the mine-debt of a previous deadline-aborted batch first:
	// those documents are durably acked, their facts ride this publish.
	debt := t.pendingMine
	t.pendingMine = nil
	for _, id := range debt {
		fs, _, err := t.fold(id, false)
		facts = append(facts, fs...)
		if err != nil {
			errs = append(errs, err)
		}
	}

	batch := make([]Document, len(docs))
	for i, d := range docs {
		batch[i] = Document{
			ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text,
		}
	}
	ids, ingestErr := t.p.Ingest(batch)
	if ingestErr != nil {
		errs = append(errs, ingestErr)
	}
	for i, id := range ids {
		if cerr := ctx.Err(); cerr != nil {
			// Deadline mid-batch: the rest are stored (acked) but not
			// yet mined — queue the debt instead of dropping it.
			t.pendingMine = append(t.pendingMine, ids[i:]...)
			errs = append(errs, fmt.Errorf(
				"webfountain: serving mine deferred for %d of %d docs: %w",
				len(ids)-i, len(ids), cerr))
			break
		}
		fs, _, err := t.fold(id, false)
		facts = append(facts, fs...)
		if err != nil {
			errs = append(errs, err)
		}
	}
	// Publish even an empty successful batch: the corpus changed, so
	// cached responses keyed on the old generation must re-render. A
	// batch that stored nothing and failed changed nothing — skipping
	// its publish keeps the generation meaningful across recovery
	// (recovery replays documents, not failed attempts).
	if len(ids) > 0 || len(errs) == 0 {
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
	return ids, len(facts), errors.Join(errs...)
}

// annotationsOf converts mined facts to the store annotations the
// offline trend miner consumes.
func annotationsOf(facts []SubjectSentiment) []store.Annotation {
	anns := make([]store.Annotation, 0, len(facts))
	for _, f := range facts {
		anns = append(anns, store.Annotation{
			Miner:    MinerName,
			Type:     "polarity",
			Key:      f.Subject,
			Value:    f.Polarity.String(),
			Sentence: f.Sentence,
		})
	}
	return anns
}

// datedFacts converts one document's mined facts to aggregate facts,
// all carrying the document's publication date.
func datedFacts(facts []SubjectSentiment, date string) []serve.Fact {
	out := make([]serve.Fact, 0, len(facts))
	for _, f := range facts {
		out = append(out, serve.Fact{
			Subject:  f.Subject,
			Feature:  f.Feature,
			Date:     date,
			Positive: f.Polarity == Positive,
		})
	}
	return out
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
