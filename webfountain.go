// Package webfountain is a from-scratch reproduction of "Sentiment Mining
// in WebFountain" (Yi & Niblack, ICDE 2005): a text-analytics platform in
// the style of WebFountain together with the paper's NLP-based sentiment
// miner, which determines the sentiment expressed about each individual
// subject reference instead of classifying whole documents.
//
// The package is the public facade over the substrates in internal/:
//
//   - Platform: a sharded entity store, an inverted indexer and one
//     parallel pass that runs miners over the stored documents (the
//     WebFountain core).
//   - SentimentMiner: the paper's contribution, in both operational
//     modes — with a predefined set of subjects (spotting,
//     disambiguation, per-spot sentiment) and without (named-entity
//     spotting, offline analysis, a sentiment index serving queries).
//   - Feature extraction: the bBNP heuristic with likelihood-ratio
//     selection, for discovering the feature terms of a topic.
//
// A minimal session:
//
//	miner := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
//	for _, s := range miner.AnalyzeText("The NR70 takes excellent pictures.") {
//		fmt.Printf("(%s, %s)\n", s.Subject, s.Polarity)
//	}
package webfountain

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"webfountain/internal/index"
	"webfountain/internal/metrics"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

// Platform-level ingest metrics: every ingest, Platform.Ingest's and the
// serving tier's alike, runs the one ingest loop that records them.
var (
	platformIngestDocs     = metrics.Default().Counter("platform.ingest.docs")
	platformIngestBytes    = metrics.Default().Counter("platform.ingest.bytes")
	platformIngestCommitNs = metrics.Default().Histogram("platform.ingest.commit.ns")
	platformIndexBuildNs   = metrics.Default().Histogram("platform.index.build.ns")
)

// Document is a unit of ingested content.
type Document struct {
	// ID must be unique within the platform; empty IDs are assigned
	// automatically at ingestion.
	ID string
	// URL is the acquisition address, if any.
	URL string
	// Source classifies the channel: "web", "news", "review", "bboard".
	Source string
	// Title is the document title.
	Title string
	// Date is the publication date in YYYY-MM-DD form (optional; enables
	// trend analysis).
	Date string
	// Links are IDs of other documents this one links to (optional;
	// enables page ranking).
	Links []string
	// Text is the document body.
	Text string
}

// Platform is the text-analytics substrate: a sharded entity store, an
// inverted index over tokens and miner concepts, and a parallel pass
// that mines the stored documents. It is safe for concurrent use.
type Platform struct {
	store   *store.Store
	workers int
	nextID  atomic.Int64

	// mineMu runs one mineStored pass at a time: a pass checks a
	// document for its miner's annotations and then annotates it, and
	// two passes interleaved there would both write.
	mineMu sync.Mutex

	// The inverted index is built from the store by the first search
	// (InvertedIndex) and kept up to date by every write after that, so a
	// platform that is never searched never builds it. Writers hold
	// indexMu shared across their store write and index update and the
	// build holds it exclusively, so the build sees each document exactly
	// once.
	indexMu     sync.RWMutex
	index       atomic.Pointer[index.Index]
	indexShards int
}

// PlatformConfig tunes the platform. Zero values select sensible
// defaults.
type PlatformConfig struct {
	// Shards is the number of store shards (default 16).
	Shards int

	// DataDir, when set, makes the platform durable: every ingest,
	// delete and miner annotation is write-ahead-logged under this
	// directory and recovered by OpenPlatform after a crash. NewPlatform
	// ignores it — use OpenPlatform for a durable platform.
	DataDir string
	// SyncEvery syncs the write-ahead log once at least that many
	// records have been appended since the last sync (default 1: every
	// commit, and an ingest call is one commit). See
	// store.Options.SyncEvery.
	SyncEvery int
	// CompactEvery, when positive, compacts the log into a checksummed
	// snapshot after that many records (default 0: manual only).
	CompactEvery int

	// IngestWorkers is the number of concurrent workers Ingest uses to
	// analyze documents before their one store commit, and the first
	// search's index build uses to index the store (default: GOMAXPROCS,
	// read when the platform is built). 1 selects the serial path.
	IngestWorkers int
	// IndexShards is the number of term-hashed inverted-index shards
	// (default 16). More shards admit more concurrent ingest workers.
	IndexShards int
}

// ConfigError reports a nonsensical PlatformConfig field value. Zero and
// negative tuning fields are not errors — they clamp to defaults — but a
// value that cannot mean anything (a negative sync cadence) is surfaced
// instead of silently ignored.
type ConfigError struct {
	// Field names the offending PlatformConfig field.
	Field string
	// Value is the rejected value.
	Value any
	// Reason says why the value is nonsensical.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("webfountain: config %s = %v: %s", e.Field, e.Value, e.Reason)
}

// maxShards bounds the store and index shard counts: beyond this the
// per-shard maps cost more than any contention they could relieve, and a
// runaway value is almost certainly a unit mistake.
const maxShards = 1 << 12

// Validate reports the first nonsensical configuration value as a
// *ConfigError. Zero and negative tuning fields (Shards, IngestWorkers and
// IndexShards) are valid — they select defaults — so Validate
// only rejects values no clamping rule can make sense of.
func (cfg PlatformConfig) Validate() error {
	if cfg.Shards > maxShards {
		return &ConfigError{Field: "Shards", Value: cfg.Shards, Reason: fmt.Sprintf("exceeds maximum %d", maxShards)}
	}
	if cfg.IndexShards > maxShards {
		return &ConfigError{Field: "IndexShards", Value: cfg.IndexShards, Reason: fmt.Sprintf("exceeds maximum %d", maxShards)}
	}
	if cfg.IngestWorkers > maxShards {
		return &ConfigError{Field: "IngestWorkers", Value: cfg.IngestWorkers, Reason: fmt.Sprintf("exceeds maximum %d", maxShards)}
	}
	if cfg.SyncEvery < 0 {
		return &ConfigError{Field: "SyncEvery", Value: cfg.SyncEvery, Reason: "negative sync cadence"}
	}
	if cfg.CompactEvery < 0 {
		return &ConfigError{Field: "CompactEvery", Value: cfg.CompactEvery, Reason: "negative compaction cadence"}
	}
	return nil
}

// normalized clamps zero and negative tuning fields to their defaults.
func (cfg PlatformConfig) normalized() PlatformConfig {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.IngestWorkers <= 0 {
		cfg.IngestWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.IndexShards <= 0 {
		cfg.IndexShards = 16
	}
	return cfg
}

// NewPlatform builds an empty in-memory platform. Zero or negative
// tuning fields clamp to defaults; use Validate to surface nonsensical
// configurations before construction (OpenPlatform does so itself).
func NewPlatform(cfg PlatformConfig) *Platform {
	cfg = cfg.normalized()
	return platformOver(store.New(cfg.Shards), cfg)
}

// OpenPlatform builds a durable platform rooted at cfg.DataDir: the
// entity store write-ahead-logs every mutation there, and opening an
// existing directory recovers the stored corpus (latest valid snapshot
// plus log replay); the first search builds the inverted index from it.
// Call Close to flush the log before exit.
func OpenPlatform(cfg PlatformConfig) (*Platform, error) {
	if cfg.DataDir == "" {
		return nil, &ConfigError{Field: "DataDir", Value: "", Reason: "OpenPlatform needs a data directory"}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	st, err := store.Open(cfg.DataDir, store.Options{
		Shards:       cfg.Shards,
		SyncEvery:    cfg.SyncEvery,
		CompactEvery: cfg.CompactEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("webfountain: open platform: %w", err)
	}
	return platformOver(st, cfg), nil
}

// platformOver assembles the runtime around a store and advances the ID
// generator past every stored generated ID, so new ingests cannot collide
// with recovered documents. The caller passes a normalized config; the
// clamps here are a second line of defense for direct internal callers.
func platformOver(st *store.Store, cfg PlatformConfig) *Platform {
	workers := cfg.IngestWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := cfg.IndexShards
	if shards <= 0 {
		shards = 16
	}
	p := &Platform{
		store:       st,
		workers:     workers,
		indexShards: shards,
	}
	var maxGen int64
	for _, id := range st.IDs() {
		if n, ok := parseGeneratedID(id); ok && n > maxGen {
			maxGen = n
		}
	}
	p.nextID.Store(maxGen)
	return p
}

// indexEntity tokenizes a document body into a.toks and adds it to ix —
// the one tokenize→words→Add path of the index build and of a commit
// that finds the index built after its documents were analyzed, so
// every route into the index produces identical postings.
func indexEntity(ix *index.Index, a *ingestArena, id, text string) {
	a.toks = a.tk.AppendTokens(a.toks[:0], text)
	ix.Add(id, a.appendWords(a.words[:0]))
}

// commit stores ents, each with anns[i] appended, as one store commit
// (store.PutBatch) and then, once a search has built the index, indexes
// them: ents[i] from words[i] when its analysis tokenized it (words[i]
// non-nil), by tokenizing it here otherwise. It is the one write step
// behind Ingest and Restore, taken under the shared side of indexMu so
// a concurrent build neither skips a document nor indexes it twice.
func (p *Platform) commit(ents []*store.Entity, anns [][]store.Annotation, words [][]string) error {
	p.indexMu.RLock()
	defer p.indexMu.RUnlock()
	if err := p.store.PutBatch(ents, anns); err != nil {
		return err
	}
	ix := p.index.Load()
	if ix == nil {
		return nil
	}
	var ia *ingestArena
	for i, e := range ents {
		if words != nil && words[i] != nil {
			ix.Add(e.ID, words[i])
			continue
		}
		if ia == nil {
			ia = newIngestArena()
		}
		indexEntity(ix, ia, e.ID, e.Text)
	}
	return nil
}

// ingestArena holds one ingest worker's reusable buffers: the tokenizer,
// its token output, the word slice handed to the index and the miner's
// facts. Every worker owns its arena outright — no cross-worker pool to
// contend on.
type ingestArena struct {
	tk    *tokenize.Tokenizer
	toks  []tokenize.Token
	words []string
	facts []SubjectSentiment // the miner's facts of the document in hand
}

func newIngestArena() *ingestArena { return &ingestArena{tk: tokenize.New()} }

// appendWords appends the text of a.toks to dst.
func (a *ingestArena) appendWords(dst []string) []string {
	for i := range a.toks {
		dst = append(dst, a.toks[i].Text)
	}
	return dst
}

// generatedID names the n-th document ingested without an ID of its
// own, as fmt.Sprintf("doc-%06d", n) would, in one allocation.
func generatedID(n int64) string {
	var digits, id [24]byte
	d := strconv.AppendInt(digits[:0], n, 10)
	b := append(id[:0], "doc-"...)
	for range 6 - min(len(d), 6) {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// parseGeneratedID recognizes the platform's generated document IDs
// ("doc-" followed by digits only) and returns the counter value. A
// cheap manual parse: platformOver calls it once per stored ID, and
// fmt.Sscanf's reflection-driven scanning dominated recovery profiles.
func parseGeneratedID(id string) (int64, bool) {
	if len(id) < 5 || id[:4] != "doc-" {
		return 0, false
	}
	var n int64
	for i := 4; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// InvertedIndex returns the platform's inverted index, building it from
// the store on first use — the one index every search reads, kept up to
// date by every ingest and delete after that.
func (p *Platform) InvertedIndex() *index.Index {
	if ix := p.index.Load(); ix != nil {
		return ix
	}
	p.indexMu.Lock()
	defer p.indexMu.Unlock()
	if ix := p.index.Load(); ix != nil {
		return ix
	}
	span := platformIndexBuildNs.Start()
	ix := p.buildIndex()
	p.index.Store(ix)
	span.End()
	return ix
}

// buildIndex indexes the store's entities exactly as Ingest would have,
// so a platform searched late answers the same queries as one searched
// before every ingest. Store shards are indexed in parallel — each worker
// drains whole shards, the unit of parallelism the shared-nothing layout
// provides. The caller holds indexMu exclusively.
func (p *Platform) buildIndex() *index.Index {
	ix := index.NewSharded(p.indexShards)
	shards := p.store.NumShards()
	workers := p.workers
	if workers > shards {
		workers = shards
	}
	if workers < 1 {
		workers = 1
	}
	shardCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ia := newIngestArena()
			for si := range shardCh {
				_ = p.store.ForEachInShard(si, func(e *store.Entity) error {
					indexEntity(ix, ia, e.ID, e.Text)
					return nil
				})
			}
		}()
	}
	for si := 0; si < shards; si++ {
		shardCh <- si
	}
	close(shardCh)
	wg.Wait()
	return ix
}

// stored is one document's outcome of a mineStored pass.
type stored[T any] struct {
	id  string
	ok  bool // false when the document was deleted before its turn
	res T
	err error // the refused write-back
}

// mineStored is the one pass offline code mines the stored documents
// with: SentimentMiner.Run, RecoverServingTier and RunAnalytics' geo
// miner. It visits the store's IDs in sorted order, claimed by index on
// p.workers goroutines (the ingest pool's count), and keeps each
// document's outcome in its own slot, so what it returns, in sorted-ID
// order, does not depend on scheduling.
//
// mine gets the live document under its shard's read lock, as
// Store.View runs its fn (it must not mutate or retain e or its slices,
// strings are fine, and must not call into the store), and whether the
// document already carries an annotation of miner. It returns the
// document's result and the annotations miner attaches. These are
// written back, once the lock is released, under one rule: only to a
// document that carries no annotation of miner yet. A second pass, or a
// pass over documents the serving tier mined, therefore adds nothing to
// the store. A refused write-back is that document's err; the pass goes
// on.
func mineStored[T any](p *Platform, miner string, mine func(e *store.Entity, annotated bool) (T, []store.Annotation)) []stored[T] {
	p.mineMu.Lock()
	defer p.mineMu.Unlock()
	ids := p.store.IDs()
	out := make([]stored[T], len(ids))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(ids); i = int(next.Add(1)) - 1 {
			var (
				anns      []store.Annotation
				annotated bool
			)
			r := &out[i]
			r.id = ids[i]
			r.ok = p.store.View(r.id, func(e *store.Entity) {
				annotated = slices.ContainsFunc(e.Annotations, func(a store.Annotation) bool { return a.Miner == miner })
				r.res, anns = mine(e, annotated)
			})
			if r.ok && !annotated && len(anns) > 0 {
				_, r.err = p.store.Annotate(r.id, anns)
			}
		}
	}
	if workers := min(p.workers, len(ids)); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	return out
}

// Close flushes the durable store's write-ahead log and releases it. It
// is a no-op on an in-memory platform.
func (p *Platform) Close() error { return p.store.Close() }

// Degraded reports whether the platform's store has entered degraded
// read-only mode (its write-ahead log failed) and why. Reads and queries
// keep working in that state; ingests, deletes and miner write-backs are
// rejected with store.ErrReadOnly.
func (p *Platform) Degraded() (bool, string) { return p.store.Degraded() }

// Compact folds the durable store's write-ahead log into a fresh
// checksummed snapshot, bounding recovery time. It errors on an
// in-memory platform.
func (p *Platform) Compact() error { return p.store.Compact() }

// Ingest stores documents and, once a search has built the inverted
// index, indexes their tokens. Documents without an ID receive a
// generated one, returned in the IDs slice in input order. The batch is
// one store commit: on a durable platform every document is durable,
// with one write-ahead-log sync for the batch, before Ingest returns,
// and a refused commit stores none of them.
//
// With IngestWorkers > 1 the documents are prepared by a bounded worker
// pool before the commit; the returned IDs are in input order either
// way.
func (p *Platform) Ingest(docs []Document) ([]string, error) {
	return p.ingest(context.Background(), docs, nil)
}

// ingest is the one ingest loop behind Platform.Ingest and
// ServingTier.Ingest: analyze, then commit once.
//
// Its workers claim documents in input order and run each one's step
// without touching the store — deadline check, sanitizeText, tokenize
// when a search has built the index, then mine (when non-nil), which
// returns the annotations to store with the document. mine runs on the
// worker that claimed document i, over the text as it will be stored
// and the tokens the index will get, nil when there is no index yet
// (the miner then tokenizes); toks is only valid during the call. An
// expired ctx fails the document it is found at: the workers stop, and
// the earliest failure k cuts the batch.
//
// The prefix ids[:k] is then written as one store commit (commit): every
// put record with its annotate record, one write and one sync, applied
// only once durable. ingest returns ids[:k] with the cut's error, or —
// when the commit is refused — no IDs and the commit's error, having
// stored nothing. Either way nothing past the cut is stored.
//
// While any ingest runs, the process has one more P than it had before
// the first of them entered (lendP), and every worker yields its thread
// between documents, so the network poller gets to run queries on a
// single-CPU server while ingest keeps the CPU busy.
func (p *Platform) ingest(ctx context.Context, docs []Document,
	mine func(ia *ingestArena, i int, id, text string, toks []tokenize.Token) []store.Annotation) ([]string, error) {
	defer lendP()()
	ids := make([]string, len(docs))
	for i := range docs {
		if docs[i].ID != "" {
			ids[i] = docs[i].ID
		} else {
			ids[i] = generatedID(p.nextID.Add(1))
		}
	}
	var (
		ents    = make([]*store.Entity, len(docs))
		entity  = make([]store.Entity, len(docs)) // ents[i] points into it: one allocation per batch
		anns    [][]store.Annotation
		words   [][]string
		next    atomic.Int64 // work dispenser: next input index to claim
		aborted atomic.Bool
		mu      sync.Mutex
		errIdx  = len(docs)
		cutErr  error
	)
	if mine != nil {
		anns = make([][]store.Annotation, len(docs))
	}
	if p.index.Load() != nil {
		words = make([][]string, len(docs))
	}
	work := func() {
		ia := newIngestArena()
		for !aborted.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(docs) {
				return
			}
			if err := ctx.Err(); err != nil {
				aborted.Store(true)
				mu.Lock()
				if i < errIdx {
					errIdx = i
					cutErr = fmt.Errorf("webfountain: ingest stopped before %s (%d of %d): %w", ids[i], i+1, len(docs), err)
				}
				mu.Unlock()
				return
			}
			d := &docs[i]
			text := sanitizeText(d.Text)
			entity[i] = store.Entity{ // PutBatch keeps a copy or a log record of it, Links included
				ID: ids[i], URL: d.URL, Source: d.Source, Title: d.Title, Date: d.Date, Text: text, Links: d.Links,
			}
			ents[i] = &entity[i]
			var toks []tokenize.Token
			if words != nil {
				ia.toks = ia.tk.AppendTokens(ia.toks[:0], text)
				toks = ia.toks
				words[i] = ia.appendWords(make([]string, 0, len(toks)))
			}
			if mine != nil {
				anns[i] = mine(ia, i, ids[i], text, toks)
			}
			yieldThread()
		}
	}
	if workers := min(p.workers, len(docs)); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	// Indices are claimed monotonically and every claimed document runs
	// to completion, so everything before the earliest cut was analyzed;
	// whatever a worker finished past it is dropped here.
	k := errIdx
	if k == 0 {
		return ids[:0], cutErr
	}
	ents = ents[:k]
	if anns != nil {
		anns = anns[:k]
	}
	if words != nil {
		words = words[:k]
	}
	span := platformIngestCommitNs.Start()
	if err := p.commit(ents, anns, words); err != nil {
		return ids[:0], fmt.Errorf("webfountain: ingest commit of %s (%d documents): %w", ids[0], k, err)
	}
	span.End()
	platformIngestDocs.Add(int64(k))
	for _, e := range ents {
		platformIngestBytes.Add(int64(len(e.Text)))
	}
	return ids[:k], cutErr
}

// lent counts the ingest calls in flight. The first to enter raises
// GOMAXPROCS by one and the last to leave restores it: the extra P's
// thread waits in the network poller, so on a server with one CPU a
// query arriving mid-ingest is accepted and answered at the next yield
// instead of after the batch. Lent only while ingest runs — a spare P
// kept always costs idle queries a spinning second thread.
var lent struct {
	sync.Mutex
	calls int
	procs int // GOMAXPROCS before the first call entered
}

// lendP lends the network a P for the duration of one ingest call and
// returns the function that gives it back.
func lendP() (giveBack func()) {
	lent.Lock()
	if lent.calls == 0 {
		lent.procs = runtime.GOMAXPROCS(0)
		runtime.GOMAXPROCS(lent.procs + 1)
	}
	lent.calls++
	lent.Unlock()
	return func() {
		lent.Lock()
		lent.calls--
		if lent.calls == 0 {
			runtime.GOMAXPROCS(lent.procs)
		}
		lent.Unlock()
	}
}

// sanitizeText replaces exactly what encoding/xml rewrites on the way
// into the write-ahead log — invalid UTF-8 and the code points outside
// XML's character range — with U+FFFD, so the text that is tokenized and
// mined, the text that is logged and the text a restart replays are the
// same bytes, and a byte span recorded against one holds in the others.
// Clean text is returned as is, without a copy: a scan passes printable
// ASCII, tab, LF and CR, eight bytes at a time while a whole word is
// printable ASCII, and the rune mapping runs only from the first other
// byte.
func sanitizeText(text string) string {
	i := 0
scan:
	for i < len(text) {
		// A word is clean when no byte has its top bit set or lies below
		// 0x20: subtracting 0x20 from every byte borrows into the top bit
		// of the lowest byte that does.
		if i+8 <= len(text) {
			if w := load64(text[i:]); (w|(w-0x2020202020202020))&0x8080808080808080 == 0 {
				i += 8
				continue
			}
		}
		for end := min(i+8, len(text)); i < end; i++ {
			if c := text[i]; c >= 0x80 || c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				break scan
			}
		}
	}
	if i == len(text) {
		return text
	}
	tail := strings.Map(func(r rune) rune {
		if r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
			r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF {
			return r // an invalid byte arrives as U+FFFD and is written out as one
		}
		return utf8.RuneError
	}, text[i:])
	if tail == text[i:] {
		return text
	}
	return text[:i] + tail
}

// load64 returns s[:8] as a little-endian word; the compiler merges the
// eight byte loads into one.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// NumEntities returns the number of stored documents.
func (p *Platform) NumEntities() int { return p.store.Len() }

// Entity returns a stored document by ID.
func (p *Platform) Entity(id string) (Document, bool) {
	e, ok := p.store.Get(id)
	if !ok {
		return Document{}, false
	}
	return Document{
		ID: e.ID, URL: e.URL, Source: e.Source, Title: e.Title,
		Date: e.Date, Links: append([]string(nil), e.Links...), Text: e.Text,
	}, true
}

// Delete removes a document from the platform: both the store entity and
// its index postings disappear. Deleting an unknown ID is a no-op. The
// error is non-nil only on a durable platform whose write-ahead log
// cannot be appended (degraded read-only mode).
func (p *Platform) Delete(id string) error {
	p.indexMu.RLock()
	defer p.indexMu.RUnlock()
	if err := p.store.Delete(id); err != nil {
		return err
	}
	if ix := p.index.Load(); ix != nil {
		ix.Remove(id)
	}
	return nil
}

// SearchAll returns the IDs of documents containing every given term.
// The platform's first search builds the inverted index from the store.
func (p *Platform) SearchAll(terms ...string) []string {
	qs := make([]index.Query, len(terms))
	for i, t := range terms {
		qs[i] = index.Term(t)
	}
	return p.InvertedIndex().Search(index.And(qs...))
}

// SearchPhrase returns the IDs of documents containing the words
// consecutively. The platform's first search builds the inverted index
// from the store.
func (p *Platform) SearchPhrase(words ...string) []string {
	return p.InvertedIndex().Search(index.Phrase(words...))
}

// Snapshot streams every stored document to w as XML, in deterministic
// order. The snapshot can be loaded into another platform with Restore.
func (p *Platform) Snapshot(w io.Writer) error {
	return p.store.Snapshot(w)
}

// Restore loads a snapshot produced by Snapshot, replacing same-ID
// documents and indexing the restored text, as one store commit (one
// write-ahead-log sync on a durable platform; a refused commit restores
// nothing). It returns the number of documents restored.
func (p *Platform) Restore(r io.Reader) (int, error) {
	staging := store.New(p.store.NumShards())
	n, err := staging.Restore(r)
	if err != nil {
		return n, fmt.Errorf("webfountain: restore: %w", err)
	}
	ents := make([]*store.Entity, 0, n)
	staging.ForEach(func(e *store.Entity) error { //nolint:errcheck // fn never fails
		ents = append(ents, e)
		return nil
	})
	if err := p.commit(ents, nil, nil); err != nil {
		return 0, fmt.Errorf("webfountain: restore: %w", err)
	}
	return n, nil
}

// internalStore exposes the store to sibling files of this package.
func (p *Platform) internalStore() *store.Store { return p.store }
