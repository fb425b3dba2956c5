// Package index implements the WebFountain indexer: an inverted index
// over text tokens and miner-generated conceptual tokens, supporting
// boolean, phrase, range and regular-expression queries, plus the
// sentiment index that serves query-time lookups in the miner's second
// operational mode.
package index

import (
	"errors"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webfountain/internal/index/codec"
)

// ErrDeadlineExceeded reports a search abandoned because its deadline
// passed mid-evaluation. No partial result is returned: a truncated doc
// set would silently look like an exact answer.
var ErrDeadlineExceeded = errors.New("index: search deadline exceeded")

// defaultShards is the term-shard count selected by New. Sixteen shards
// keep lock contention negligible up to the worker-pool sizes the
// platform runs (ingest workers are capped well below it) while the
// fan-out cost of shard-spanning queries stays small.
const defaultShards = 16

// termShard owns the posting lists of the terms that hash to it.
// Document IDs are interned per shard: ids maps the shard-local document
// number back to the ID string and idOf the reverse. Interning happens
// under the shard's write lock, so the numbers a term list accumulates
// are non-decreasing — exactly the property the delta-varint codec
// encodes into ~1-byte gaps.
type termShard struct {
	mu    sync.RWMutex
	terms map[string]*termList
	ids   []string
	idOf  map[string]uint32
}

// termList is one term's compressed posting list: a delta-varint blob of
// (document number, positions) blocks (see internal/index/codec) plus
// the bookkeeping appends need. Readers snapshot the blob by length and
// appends only ever write past it, so a snapshot stays immutable without
// holding the shard lock — the same contract the []posting slices gave.
type termList struct {
	blob []byte
	last uint32 // document number of the final block
	n    int    // block count (document frequency incl. repeats)
}

// docShard owns the membership and token counts of the documents that
// hash to it.
type docShard struct {
	mu     sync.RWMutex
	docLen map[string]int
}

// numShard owns the numeric attributes of the fields that hash to it.
type numShard struct {
	mu      sync.RWMutex
	numeric map[string]map[string]float64 // field -> docID -> value
}

// Index is an inverted index, safe for concurrent use. Terms are
// lower-cased; conceptual tokens (miner outputs such as
// "sentiment/nr70/+") share the same term space and are distinguished by
// their prefix, exactly as the production indexer mixes text and concept
// tokens.
//
// The index is sharded by term hash: each shard guards its own slice of
// the vocabulary with its own lock, so concurrent Add calls that touch
// disjoint shards do not serialize. Document membership and numeric
// attributes are sharded the same way (by document ID and field name
// respectively). Queries lock only the shards they touch;
// vocabulary-spanning queries (regexp) fan out across shards and merge.
type Index struct {
	termShards []termShard
	docShards  []docShard
	numShards  []numShard
}

// New returns an empty index with the default shard count.
func New() *Index { return NewSharded(defaultShards) }

// NewSharded returns an empty index with the given number of term-hashed
// shards (minimum 1). More shards admit more concurrent writers at a
// slight cost to vocabulary-spanning queries.
func NewSharded(shards int) *Index {
	if shards < 1 {
		shards = 1
	}
	ix := &Index{
		termShards: make([]termShard, shards),
		docShards:  make([]docShard, shards),
		numShards:  make([]numShard, shards),
	}
	for i := 0; i < shards; i++ {
		ix.termShards[i].terms = make(map[string]*termList)
		ix.termShards[i].idOf = make(map[string]uint32)
		ix.docShards[i].docLen = make(map[string]int)
		ix.numShards[i].numeric = make(map[string]map[string]float64)
	}
	return ix
}

// NumShards returns the term-shard count.
func (ix *Index) NumShards() int { return len(ix.termShards) }

// fnv32a is an inline FNV-1a over the string bytes: the shard hash,
// hand-rolled so hashing a term does not allocate.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (ix *Index) termShard(term string) *termShard {
	return &ix.termShards[fnv32a(term)%uint32(len(ix.termShards))]
}

func (ix *Index) docShard(docID string) *docShard {
	return &ix.docShards[fnv32a(docID)%uint32(len(ix.docShards))]
}

func (ix *Index) numShard(field string) *numShard {
	return &ix.numShards[fnv32a(field)%uint32(len(ix.numShards))]
}

// Reset empties the index in place — postings, concepts, numeric
// attributes and document lengths all disappear. It is the first step of
// an index rebuild after the store recovers from disk: the recovered
// entities are re-Added onto a clean slate instead of merging with
// whatever a partial build left behind.
func (ix *Index) Reset() {
	for i := range ix.termShards {
		sh := &ix.termShards[i]
		sh.mu.Lock()
		sh.terms = make(map[string]*termList)
		sh.ids = nil
		sh.idOf = make(map[string]uint32)
		sh.mu.Unlock()
	}
	for i := range ix.docShards {
		sh := &ix.docShards[i]
		sh.mu.Lock()
		sh.docLen = make(map[string]int)
		sh.mu.Unlock()
	}
	for i := range ix.numShards {
		sh := &ix.numShards[i]
		sh.mu.Lock()
		sh.numeric = make(map[string]map[string]float64)
		sh.mu.Unlock()
	}
}

// docBuilder accumulates one document's per-term position lists. The
// scratch state (the term map, the entry list, the token→entry indices)
// is pooled and reused across Add calls; the only per-call allocations
// are the position backing array and the strings that ToLower actually
// has to rewrite — both of which outlive the call inside the index.
type docBuilder struct {
	byTerm  map[string]int
	entries []docEntry
	tokIdx  []int32
}

// docEntry is one distinct term of the document under construction.
type docEntry struct {
	term  string
	shard uint32
	count int
	pos   []int
}

var builderPool = sync.Pool{
	New: func() any {
		return &docBuilder{byTerm: make(map[string]int, 64)}
	},
}

// build lowers the tokens, groups positions by term, and tags each term
// with its destination shard. Position slices are carved out of a single
// backing array sized to the token count.
func (b *docBuilder) build(tokens []string, nshards uint32) {
	b.entries = b.entries[:0]
	b.tokIdx = b.tokIdx[:0]
	for _, t := range tokens {
		lt := strings.ToLower(t)
		idx, ok := b.byTerm[lt]
		if !ok {
			idx = len(b.entries)
			b.entries = append(b.entries, docEntry{term: lt, shard: fnv32a(lt) % nshards})
			b.byTerm[lt] = idx
		}
		b.entries[idx].count++
		b.tokIdx = append(b.tokIdx, int32(idx))
	}
	backing := make([]int, len(tokens))
	off := 0
	for i := range b.entries {
		e := &b.entries[i]
		e.pos = backing[off : off : off+e.count]
		off += e.count
	}
	for i, idx := range b.tokIdx {
		e := &b.entries[idx]
		e.pos = append(e.pos, i)
	}
}

// release clears the scratch state and returns the builder to the pool.
func (b *docBuilder) release() {
	for k := range b.byTerm {
		delete(b.byTerm, k)
	}
	for i := range b.entries {
		b.entries[i] = docEntry{}
	}
	builderPool.Put(b)
}

// Add indexes a document's tokens (positions are the slice indices).
// Re-adding a document ID replaces nothing — the caller is responsible
// for not indexing the same document twice. Concurrent Adds serialize
// only on the shards whose terms they share.
func (ix *Index) Add(docID string, tokens []string) {
	span := addNs.Start()
	defer span.End()
	addsTotal.Inc()
	addTokens.Observe(int64(len(tokens)))
	b := builderPool.Get().(*docBuilder)
	b.build(tokens, uint32(len(ix.termShards)))

	// The index keeps the ID (a map assignment stores its key even when
	// the key is there already), so it keeps a copy: the caller's may be
	// cut from a whole document.
	docID = strings.Clone(docID)
	ds := ix.docShard(docID)
	ds.mu.Lock()
	ds.docLen[docID] = len(tokens)
	ds.mu.Unlock()

	// One lock round per touched shard: scan the entry list once per
	// shard rather than regrouping into per-shard slices — for realistic
	// documents the scan is far cheaper than the allocation it avoids.
	for s := range ix.termShards {
		touched := false
		for i := range b.entries {
			if b.entries[i].shard == uint32(s) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		sh := &ix.termShards[s]
		sh.mu.Lock()
		docN := sh.intern(docID)
		for i := range b.entries {
			e := &b.entries[i]
			if e.shard != uint32(s) {
				continue
			}
			sh.appendBlock(e.term, docN, e.pos)
		}
		sh.mu.Unlock()
	}
	b.release()
}

// intern returns the shard-local document number for an ID, assigning
// the next one, to a copy of the ID, on first sight. Callers hold the
// shard write lock.
func (sh *termShard) intern(docID string) uint32 {
	if n, ok := sh.idOf[docID]; ok {
		return n
	}
	docID = strings.Clone(docID)
	n := uint32(len(sh.ids))
	sh.ids = append(sh.ids, docID)
	sh.idOf[docID] = n
	return n
}

// appendBlock appends one (document, positions) block to a term's
// compressed list. Callers hold the shard write lock and must pass
// document numbers in non-decreasing order per term — which shard-lock
// interning guarantees.
func (sh *termShard) appendBlock(term string, docN uint32, positions []int) {
	tl := sh.terms[term]
	if tl == nil {
		// A new term is keyed on a copy: the token it was lowered from
		// may be a substring of a whole document (strings.ToLower
		// returns a lower-case token as it is).
		tl = &termList{}
		sh.terms[strings.Clone(term)] = tl
	}
	gap := uint64(docN) // first block: the document number itself
	if tl.n > 0 {
		gap = uint64(docN - tl.last)
	}
	tl.blob = codec.AppendBlock(tl.blob, gap, positions)
	tl.last = docN
	tl.n++
}

// AddConcept indexes a conceptual token (no position) for a document.
func (ix *Index) AddConcept(docID, concept string) {
	lt := strings.ToLower(concept)
	sh := ix.termShard(lt)
	sh.mu.Lock()
	sh.appendBlock(lt, sh.intern(docID), nil)
	sh.mu.Unlock()
	ix.touchDoc(docID)
}

// AddNumeric indexes a numeric attribute for range queries.
func (ix *Index) AddNumeric(docID, field string, value float64) {
	sh := ix.numShard(field)
	sh.mu.Lock()
	m, ok := sh.numeric[field]
	if !ok {
		m = make(map[string]float64)
		sh.numeric[strings.Clone(field)] = m
	}
	m[strings.Clone(docID)] = value
	sh.mu.Unlock()
	ix.touchDoc(docID)
}

// touchDoc registers a document with zero tokens unless it is already
// known — concepts and numeric attributes alone make a document visible
// to Not queries and NumDocs, as before sharding.
func (ix *Index) touchDoc(docID string) {
	ds := ix.docShard(docID)
	ds.mu.Lock()
	if _, ok := ds.docLen[docID]; !ok {
		ds.docLen[strings.Clone(docID)] = 0
	}
	ds.mu.Unlock()
}

// Remove deletes a document from the index: its postings, concepts and
// numeric attributes all disappear. Removing an unknown ID is a no-op.
func (ix *Index) Remove(docID string) {
	ds := ix.docShard(docID)
	ds.mu.Lock()
	_, ok := ds.docLen[docID]
	if ok {
		delete(ds.docLen, docID)
	}
	ds.mu.Unlock()
	if !ok {
		return
	}
	for s := range ix.termShards {
		sh := &ix.termShards[s]
		sh.mu.Lock()
		docN, present := sh.idOf[docID]
		if !present {
			sh.mu.Unlock()
			continue
		}
		// Retire the document number: blocks carrying it are rebuilt away
		// below, and a re-Add of the same ID interns a fresh, larger
		// number so per-term monotonicity survives remove→re-add cycles.
		// (The ids slot stays — snapshots already handed out may still
		// map through it.)
		delete(sh.idOf, docID)
		var scratch []int
		for term, tl := range sh.terms {
			hit := false
			for r := codec.NewReader(tl.blob); ; {
				b, ok := r.Next()
				if !ok {
					break
				}
				if uint32(b.Doc) == docN {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			// Rebuild into a fresh list: blob snapshots already handed to
			// in-flight readers stay immutable, so queries never need to
			// hold a shard lock while walking positions.
			nt := &termList{}
			for r := codec.NewReader(tl.blob); ; {
				b, ok := r.Next()
				if !ok {
					break
				}
				if uint32(b.Doc) == docN {
					continue
				}
				scratch = b.AppendPositions(scratch[:0])
				gap := b.Doc
				if nt.n > 0 {
					gap = b.Doc - uint64(nt.last)
				}
				nt.blob = codec.AppendBlock(nt.blob, gap, scratch)
				nt.last = uint32(b.Doc)
				nt.n++
			}
			if nt.n == 0 {
				delete(sh.terms, term)
			} else {
				sh.terms[term] = nt
			}
		}
		sh.mu.Unlock()
	}
	for s := range ix.numShards {
		sh := &ix.numShards[s]
		sh.mu.Lock()
		for field, m := range sh.numeric {
			delete(m, docID)
			if len(m) == 0 {
				delete(sh.numeric, field)
			}
		}
		sh.mu.Unlock()
	}
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int {
	n := 0
	for i := range ix.docShards {
		sh := &ix.docShards[i]
		sh.mu.RLock()
		n += len(sh.docLen)
		sh.mu.RUnlock()
	}
	return n
}

// postingView is an immutable snapshot of one term's posting list: the
// encoded blob plus the shard's ID table, both captured by length under
// the read lock. Appends only write past the captured lengths and
// removals reallocate, so a view is safe to read after the lock drops —
// the same snapshot contract the old []posting slices carried.
type postingView struct {
	blob []byte
	n    int
	ids  []string
}

// forEach decodes the view's blocks in order, resolving document numbers
// to ID strings. fn returning false stops the walk.
func (v postingView) forEach(fn func(id string, b codec.Block) bool) {
	for r := codec.NewReader(v.blob); ; {
		b, ok := r.Next()
		if !ok {
			return
		}
		if b.Doc >= uint64(len(v.ids)) {
			return // corrupt blob; unreachable rather than a panic
		}
		if !fn(v.ids[b.Doc], b) {
			return
		}
	}
}

// postings returns a stable snapshot of the posting list for an
// already-lowered term.
func (ix *Index) postings(lt string) postingView {
	sh := ix.termShard(lt)
	sh.mu.RLock()
	var v postingView
	if tl := sh.terms[lt]; tl != nil {
		v = postingView{
			blob: tl.blob[:len(tl.blob):len(tl.blob)],
			n:    tl.n,
			ids:  sh.ids[:len(sh.ids):len(sh.ids)],
		}
	}
	sh.mu.RUnlock()
	if v.n > 0 {
		postingSizes.Observe(int64(v.n))
	}
	return v
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	return ix.postings(strings.ToLower(term)).n
}

// PostingStats reports the memory footprint of the compressed posting
// lists against what the previous flat representation (a 40-byte posting
// struct per document block plus 8 bytes per position) would occupy.
type PostingStats struct {
	// EncodedBytes is the total size of the delta-varint blobs.
	EncodedBytes int64
	// FlatBytes is the computed footprint of the pre-codec layout:
	// per block a string header (16 B) and a position-slice header
	// (24 B), plus 8 B per position.
	FlatBytes int64
	// Blocks is the number of document blocks across all terms.
	Blocks int64
	// Positions is the number of encoded token positions.
	Positions int64
}

// Ratio returns FlatBytes / EncodedBytes (0 when empty).
func (s PostingStats) Ratio() float64 {
	if s.EncodedBytes == 0 {
		return 0
	}
	return float64(s.FlatBytes) / float64(s.EncodedBytes)
}

// PostingStats walks every term shard and totals the posting footprint.
func (ix *Index) PostingStats() PostingStats {
	var st PostingStats
	for i := range ix.termShards {
		sh := &ix.termShards[i]
		sh.mu.RLock()
		for _, tl := range sh.terms {
			st.EncodedBytes += int64(len(tl.blob))
			st.Blocks += int64(tl.n)
			for r := codec.NewReader(tl.blob); ; {
				b, ok := r.Next()
				if !ok {
					break
				}
				st.Positions += int64(b.Count)
			}
		}
		sh.mu.RUnlock()
	}
	st.FlatBytes = 40*st.Blocks + 8*st.Positions
	return st
}

// Vocabulary returns the number of distinct terms.
func (ix *Index) Vocabulary() int {
	n := 0
	for i := range ix.termShards {
		sh := &ix.termShards[i]
		sh.mu.RLock()
		n += len(sh.terms)
		sh.mu.RUnlock()
	}
	return n
}

// docSet is a set of document IDs.
type docSet map[string]bool

func (ix *Index) allDocs() docSet {
	out := make(docSet)
	for i := range ix.docShards {
		sh := &ix.docShards[i]
		sh.mu.RLock()
		for id := range sh.docLen {
			out[id] = true
		}
		sh.mu.RUnlock()
	}
	return out
}

// evalCtx threads per-search state — the index and an optional absolute
// deadline — through query evaluation. The expired latch is atomic
// because vocabulary-spanning queries check it from parallel shard
// scanners.
type evalCtx struct {
	ix       *Index
	deadline time.Time
	hit      atomic.Bool
}

// expired reports (and latches) whether the search deadline has passed.
// Evaluators poll it at shard and sub-query boundaries — coarse enough
// to stay off the per-document hot path, fine enough that an abandoned
// search returns within one shard scan of its deadline.
func (ec *evalCtx) expired() bool {
	if ec.deadline.IsZero() {
		return false
	}
	if ec.hit.Load() {
		return true
	}
	if time.Now().After(ec.deadline) {
		ec.hit.Store(true)
		return true
	}
	return false
}

// Query is a composable index query.
type Query interface {
	eval(ec *evalCtx) docSet
}

// term matches documents containing a single term.
type termQuery string

func (q termQuery) eval(ec *evalCtx) docSet {
	v := ec.ix.postings(strings.ToLower(string(q)))
	out := make(docSet, v.n)
	v.forEach(func(id string, _ codec.Block) bool {
		out[id] = true
		return true
	})
	return out
}

// Term returns a query matching documents containing t.
func Term(t string) Query { return termQuery(t) }

type andQuery []Query

func (q andQuery) eval(ec *evalCtx) docSet {
	if len(q) == 0 {
		return docSet{}
	}
	acc := q[0].eval(ec)
	for _, sub := range q[1:] {
		if ec.expired() {
			return acc
		}
		next := sub.eval(ec)
		for id := range acc {
			if !next[id] {
				delete(acc, id)
			}
		}
	}
	return acc
}

// And intersects sub-queries.
func And(qs ...Query) Query { return andQuery(qs) }

type orQuery []Query

func (q orQuery) eval(ec *evalCtx) docSet {
	acc := make(docSet)
	for _, sub := range q {
		if ec.expired() {
			return acc
		}
		for id := range sub.eval(ec) {
			acc[id] = true
		}
	}
	return acc
}

// Or unions sub-queries.
func Or(qs ...Query) Query { return orQuery(qs) }

type notQuery struct{ q Query }

func (q notQuery) eval(ec *evalCtx) docSet {
	exclude := q.q.eval(ec)
	if ec.expired() {
		return docSet{}
	}
	out := ec.ix.allDocs()
	for id := range exclude {
		delete(out, id)
	}
	return out
}

// Not matches all documents except those matching q.
func Not(q Query) Query { return notQuery{q} }

type phraseQuery []string

func (q phraseQuery) eval(ec *evalCtx) docSet {
	out := make(docSet)
	if len(q) == 0 {
		return out
	}
	// Snapshot every word's posting list up front: one shard-lock round
	// per word instead of one per (position, word) probe. Document IDs
	// are compared as strings across lists — each word may live in a
	// different shard, and document numbers are shard-local.
	lists := make([]postingView, len(q))
	for i, w := range q {
		lists[i] = ec.ix.postings(strings.ToLower(w))
		if lists[i].n == 0 {
			return out
		}
	}
	var starts []int
	n := 0
	lists[0].forEach(func(id string, b codec.Block) bool {
		if n++; n%256 == 0 && ec.expired() {
			return false
		}
		starts = b.AppendPositions(starts[:0])
		if phraseAt(lists, id, starts) {
			out[id] = true
		}
		return true
	})
	return out
}

// phraseAt checks whether the phrase continues from each of the first
// word's start positions in the given document.
func phraseAt(lists []postingView, docID string, starts []int) bool {
	for _, start := range starts {
		ok := true
		for k := 1; k < len(lists); k++ {
			if !hasPosition(lists[k], docID, start+k) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func hasPosition(v postingView, docID string, pos int) bool {
	found := false
	v.forEach(func(id string, b codec.Block) bool {
		if id != docID {
			return true
		}
		found = b.Contains(pos)
		return false // the document's block decides, as before
	})
	return found
}

// Phrase matches documents containing the words consecutively.
func Phrase(words ...string) Query { return phraseQuery(words) }

type rangeQuery struct {
	field  string
	lo, hi float64
}

func (q rangeQuery) eval(ec *evalCtx) docSet {
	out := make(docSet)
	if ec.expired() {
		return out
	}
	sh := ec.ix.numShard(q.field)
	sh.mu.RLock()
	for id, v := range sh.numeric[q.field] {
		if v >= q.lo && v <= q.hi {
			out[id] = true
		}
	}
	sh.mu.RUnlock()
	return out
}

// Range matches documents whose numeric field lies in [lo, hi].
func Range(field string, lo, hi float64) Query { return rangeQuery{field, lo, hi} }

type regexpQuery struct{ re *regexp.Regexp }

// eval scans the whole vocabulary, the one query shape that touches
// every shard. Shards are scanned by a bounded fan-out of workers and
// the per-shard matches merged.
func (q regexpQuery) eval(ec *evalCtx) docSet {
	ix := ec.ix
	nshards := len(ix.termShards)
	workers := runtime.GOMAXPROCS(0)
	if workers > nshards {
		workers = nshards
	}
	if workers <= 1 {
		out := make(docSet)
		for s := 0; s < nshards; s++ {
			if ec.expired() {
				break
			}
			q.scanShard(ix, s, out)
		}
		return out
	}
	partial := make([]docSet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make(docSet)
			for s := w; s < nshards; s += workers {
				if ec.expired() {
					break
				}
				q.scanShard(ix, s, out)
			}
			partial[w] = out
		}(w)
	}
	wg.Wait()
	merged := partial[0]
	for _, p := range partial[1:] {
		for id := range p {
			merged[id] = true
		}
	}
	return merged
}

// scanShard adds the shard's matching documents to out.
func (q regexpQuery) scanShard(ix *Index, s int, out docSet) {
	span := shardScanNs.Start()
	defer span.End()
	sh := &ix.termShards[s]
	sh.mu.RLock()
	for term, tl := range sh.terms {
		if !q.re.MatchString(term) {
			continue
		}
		for r := codec.NewReader(tl.blob); ; {
			b, ok := r.Next()
			if !ok {
				break
			}
			if b.Doc < uint64(len(sh.ids)) {
				out[sh.ids[b.Doc]] = true
			}
		}
	}
	sh.mu.RUnlock()
}

// Regexp matches documents containing any indexed term that matches the
// pattern. It returns an error for invalid patterns.
func Regexp(pattern string) (Query, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return regexpQuery{re}, nil
}

// Search evaluates a query and returns matching document IDs, sorted.
// Queries lock only the shards they touch, so searches proceed
// concurrently with indexing; a search overlapping an Add observes the
// document either fully or not at all per term, and the result is exact
// once the writers it overlaps have returned.
func (ix *Index) Search(q Query) []string {
	out, _ := ix.SearchWithDeadline(q, time.Time{})
	return out
}

// SearchWithDeadline evaluates a query under an absolute deadline (zero
// = unbounded). Evaluation polls the deadline at shard and sub-query
// boundaries; once it passes, the search is abandoned and
// ErrDeadlineExceeded returned — an overloaded serving path sheds the
// scan instead of finishing it late. This is the index-side leg of the
// platform's end-to-end deadline propagation: vinci hands the handler
// the request's remaining budget and the handler forwards it here.
func (ix *Index) SearchWithDeadline(q Query, deadline time.Time) ([]string, error) {
	span := searchNs.Start()
	defer span.End()
	ec := &evalCtx{ix: ix, deadline: deadline}
	set := q.eval(ec)
	if ec.hit.Load() {
		searchExpired.Inc()
		return nil, ErrDeadlineExceeded
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}
