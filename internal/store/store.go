// Package store implements the WebFountain data store: a sharded,
// concurrency-safe repository of entities.
//
// An entity is a referenceable unit of information such as a web page,
// represented in XML. The store supports put/get/delete, per-shard
// iteration (the unit of parallelism for the cluster runtime), and miner
// annotations attached to entities. Sharding is by FNV hash of the entity
// ID, mirroring the shared-nothing layout of the production system where
// each node owns a disjoint slice of the corpus.
package store

import (
	"encoding/xml"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// ErrDeadlineExceeded reports a scan abandoned because its deadline
// passed before it finished.
var ErrDeadlineExceeded = errors.New("store: scan deadline exceeded")

// Annotation is one miner-produced mark on an entity: a spot, a named
// entity, a sentiment, etc. The position fields mean what the producing
// miner says they mean; the sentiment miner's are documented on Start.
type Annotation struct {
	// Miner names the producer ("spotter", "sentiment", "ne", ...).
	Miner string `xml:"miner,attr"`
	// Type is the annotation kind within the miner's vocabulary.
	Type string `xml:"type,attr"`
	// Key is the annotation's subject (synonym set ID, entity name, ...).
	Key string `xml:"key,attr"`
	// Value is the payload ("+", "-", a score, ...).
	Value string `xml:"value,attr,omitempty"`
	// Feature is the phrase a sentiment was directed at ("" when the
	// miner resolved none, and on every other miner's annotations).
	Feature string `xml:"feature,attr,omitempty"`
	// Sentence is the sentence index, -1 when not sentence-scoped.
	Sentence int `xml:"sentence,attr"`
	// Start and End are a half-open span: token indices within the
	// sentence for the spotters, the byte span of the sentiment-bearing
	// sentence in Entity.Text for the sentiment miner — with Key, Value,
	// Sentence and Feature the whole mined fact, so the serving tier is
	// rebuilt from stored annotations without re-mining.
	Start int `xml:"start,attr"`
	End   int `xml:"end,attr"`
}

// Entity is a referenceable unit of information (a web page, a news
// article, a review).
type Entity struct {
	XMLName xml.Name `xml:"entity"`
	// ID is the unique entity identifier.
	ID string `xml:"id,attr"`
	// URL is the acquisition source address.
	URL string `xml:"url,attr,omitempty"`
	// Source classifies the ingestion channel: "web", "news", "review",
	// "bboard", "customer".
	Source string `xml:"source,attr,omitempty"`
	// Title is the document title.
	Title string `xml:"title,omitempty"`
	// Date is the acquisition or publication date in YYYY-MM-DD form,
	// empty when unknown. Corpus-level miners (trending) bucket by it.
	Date string `xml:"date,attr,omitempty"`
	// Text is the document body.
	Text string `xml:"text"`
	// Links are the IDs of entities this one links to (the hyperlink
	// graph the page-ranking miner consumes).
	Links []string `xml:"links>link,omitempty"`
	// Version orders replicated writes of one ID: the routing tier stamps
	// every Put with a monotonically increasing sequence, and replication
	// catch-up (ApplyFrames) discards frames older than the copy a node
	// already holds, so a frame shipped before a dual-write landed cannot
	// roll the newer copy back. Zero on entities that never passed
	// through a router (single-process deployments), where arrival order
	// is write order and no comparison is needed.
	Version uint64 `xml:"version,attr,omitempty"`
	// Annotations are miner outputs attached to the entity.
	Annotations []Annotation `xml:"annotations>annotation,omitempty"`
}

// Clone returns a deep copy of the entity.
func (e *Entity) Clone() *Entity {
	cp := *e
	cp.Links = append([]string(nil), e.Links...)
	cp.Annotations = append([]Annotation(nil), e.Annotations...)
	return &cp
}

// Host returns the host part of the entity's URL ("" when unparsable).
func (e *Entity) Host() string {
	u := e.URL
	if i := indexOf(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	for i := 0; i < len(u); i++ {
		if u[i] == '/' || u[i] == ':' {
			return u[:i]
		}
	}
	return u
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Annotate appends an annotation.
func (e *Entity) Annotate(a Annotation) { e.Annotations = append(e.Annotations, a) }

// AnnotationsBy returns the annotations produced by one miner.
func (e *Entity) AnnotationsBy(miner string) []Annotation {
	var out []Annotation
	for _, a := range e.Annotations {
		if a.Miner == miner {
			out = append(out, a)
		}
	}
	return out
}

// MarshalIndent renders the entity as indented XML.
func (e *Entity) MarshalIndent() ([]byte, error) {
	return xml.MarshalIndent(e, "", "  ")
}

// ParseEntity decodes an entity from its XML representation.
func ParseEntity(data []byte) (*Entity, error) {
	var e Entity
	if err := xml.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("store: decode entity: %w", err)
	}
	return &e, nil
}

// shard is one mutex-guarded slice of the keyspace.
type shard struct {
	mu       sync.RWMutex
	entities map[string]*Entity
}

// Store is a sharded entity repository, safe for concurrent use. A store
// built with New is purely in-memory; one built with Open additionally
// write-ahead-logs every mutation to disk and recovers it on restart.
type Store struct {
	shards []*shard
	// dur is the durability state, nil for in-memory stores.
	dur *durability

	// Tombstones: every Delete records the ID so replication catch-up can
	// distinguish "deleted cluster-wide while you were down" (a live peer
	// holds the tombstone) from "you hold the only surviving copy of an
	// acked write" (nobody does). A versioned delete (DeleteVersioned)
	// additionally records the delete's HLC version, which anti-entropy
	// and the ApplyFrames fences compare against put versions to decide
	// whether a delete supersedes a copy or vice versa. Retention is a
	// bounded FIFO (maxTombstones); on a durable store the WAL replays
	// deletes through applyDelete/applyDeleteVersioned, so tombstones
	// younger than the last compaction survive a restart.
	tmu       sync.Mutex
	tombs     map[string]tombstone // id -> its newest tombstone
	tombSeq   uint64
	tombOrder []tombEntry
}

// tombstone is one retained delete: the FIFO admission seq plus the
// delete's version (0 for an unversioned local delete).
type tombstone struct {
	seq     uint64
	version uint64
}

// tombEntry is one FIFO slot in the tombstone retention queue. The seq
// lets eviction skip slots that were superseded (the ID was re-deleted
// after an intervening put, so a newer slot exists further back).
type tombEntry struct {
	id  string
	seq uint64
}

// maxTombstones bounds per-store tombstone retention. Beyond it the
// oldest tombstones are forgotten, after which catch-up treats the ID's
// sole copies conservatively (kept, not deleted).
const maxTombstones = 8192

// New creates an in-memory store with the given number of shards
// (minimum 1).
func New(numShards int) *Store {
	if numShards < 1 {
		numShards = 1
	}
	s := &Store{shards: make([]*shard, numShards)}
	for i := range s.shards {
		s.shards[i] = &shard{entities: make(map[string]*Entity)}
	}
	return s
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

func (s *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Put stores (or replaces) an entity. The store keeps its own copy; later
// mutations of the caller's value do not leak in. On a durable store the
// entity is appended to the write-ahead log before it becomes visible;
// a Put that returns nil is recoverable after a crash (subject to the
// sync policy).
func (s *Store) Put(e *Entity) error {
	if e == nil || e.ID == "" {
		return fmt.Errorf("store: entity must have an ID")
	}
	if s.dur == nil {
		s.applyPut(e)
		return nil
	}
	rec, err := encodePut(e)
	if err != nil {
		return fmt.Errorf("store: encode entity %s: %w", e.ID, err)
	}
	return s.logged(rec, func() { s.applyPut(e) })
}

// applyPut installs a copy of the entity in its shard, bypassing the
// WAL. Versioned puts (Version > 0) are fenced: a put older than the
// copy already held, or older than a versioned tombstone for the ID, is
// a stale replica of a superseded write and is dropped rather than
// installed — last-writer-wins by HLC version. Unversioned puts
// (single-process deployments, where arrival order is write order)
// always install.
func (s *Store) applyPut(e *Entity) {
	if e.Version > 0 {
		if tv, ok := s.tombstoneVersion(e.ID); ok && tv >= e.Version {
			return
		}
	}
	sh := s.shardFor(e.ID)
	sh.mu.Lock()
	if cur, ok := sh.entities[e.ID]; ok && e.Version > 0 && cur.Version > e.Version {
		sh.mu.Unlock()
		return
	}
	sh.entities[e.ID] = e.Clone()
	sh.mu.Unlock()
	s.clearTombstone(e.ID)
}

// Get returns a copy of the entity with the given ID.
func (s *Store) Get(id string) (*Entity, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entities[id]
	if !ok {
		return nil, false
	}
	return e.Clone(), true
}

// View runs fn on the live stored entity under its shard's read lock,
// skipping the defensive clone Get makes — the read path for scans
// that visit many entities and only look (the serving tier's startup
// repair walks the whole corpus through it). fn must not mutate the
// entity or retain it (or its slices) past the call; retaining plain
// string fields is fine, strings are immutable. fn must not call back
// into the store — the shard lock is held. Returns false when the ID
// is absent.
func (s *Store) View(id string, fn func(*Entity)) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entities[id]
	if !ok {
		return false
	}
	fn(e)
	return true
}

// Delete removes an entity; deleting a missing ID is a no-op. On a
// durable store the delete is write-ahead-logged first; the error is
// non-nil only when the log cannot be appended (degraded mode).
func (s *Store) Delete(id string) error {
	if s.dur == nil {
		s.applyDelete(id)
		return nil
	}
	return s.logged(encodeWALRecord(opDelete, []byte(id)), func() { s.applyDelete(id) })
}

// applyDelete removes the entity from its shard, bypassing the WAL.
func (s *Store) applyDelete(id string) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	delete(sh.entities, id)
	sh.mu.Unlock()
	s.recordTombstone(id, 0)
}

// DeleteVersioned removes an entity under an HLC version stamp. The
// delete is fenced: if the held copy is newer than the stamp, the
// delete is a stale replica of a superseded operation and becomes a
// no-op (no tombstone either — the newer put wins). An applied delete
// records a versioned tombstone, which fences later stale puts of the
// same ID. On a durable store the delete is write-ahead-logged first.
func (s *Store) DeleteVersioned(id string, version uint64) error {
	if s.dur == nil {
		s.applyDeleteVersioned(id, version)
		return nil
	}
	return s.logged(encodeWALRecord(opDeleteV, encodeDeleteV(id, version)), func() { s.applyDeleteVersioned(id, version) })
}

// applyDeleteVersioned is the fenced delete path, bypassing the WAL.
func (s *Store) applyDeleteVersioned(id string, version uint64) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if cur, ok := sh.entities[id]; ok && version > 0 && cur.Version > version {
		sh.mu.Unlock()
		return
	}
	delete(sh.entities, id)
	sh.mu.Unlock()
	s.recordTombstone(id, version)
}

// recordTombstone remembers that id was deleted (at the given version,
// 0 for unversioned deletes), evicting the oldest tombstones past the
// retention cap. Deletes of never-held IDs still record — a replica
// that missed the original put but received the delete is exactly the
// evidence catch-up needs.
func (s *Store) recordTombstone(id string, version uint64) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.tombs == nil {
		s.tombs = map[string]tombstone{}
	}
	// A re-delete never moves the ID's tombstone backwards in version:
	// an unversioned delete refreshes retention but keeps the versioned
	// evidence, and a stale versioned delete keeps the newer stamp.
	if cur, ok := s.tombs[id]; ok && cur.version > version {
		version = cur.version
	}
	s.tombSeq++
	s.tombs[id] = tombstone{seq: s.tombSeq, version: version}
	s.tombOrder = append(s.tombOrder, tombEntry{id: id, seq: s.tombSeq})
	for len(s.tombOrder) > maxTombstones {
		old := s.tombOrder[0]
		s.tombOrder = s.tombOrder[1:]
		// Only forget the ID if this slot is still its newest tombstone;
		// a superseded slot (re-deleted later) must not evict the live one.
		if s.tombs[old.id].seq == old.seq {
			delete(s.tombs, old.id)
		}
	}
}

// clearTombstone withdraws a tombstone: the ID was re-created, so its
// absence elsewhere no longer means "deleted".
func (s *Store) clearTombstone(id string) {
	s.tmu.Lock()
	delete(s.tombs, id)
	s.tmu.Unlock()
}

// Tombstones returns the retained deleted IDs, sorted.
func (s *Store) Tombstones() []string {
	s.tmu.Lock()
	out := make([]string, 0, len(s.tombs))
	for id := range s.tombs {
		out = append(out, id)
	}
	s.tmu.Unlock()
	sort.Strings(out)
	return out
}

// TombstonesVersioned returns the retained tombstones as id -> delete
// version (0 for unversioned deletes).
func (s *Store) TombstonesVersioned() map[string]uint64 {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := make(map[string]uint64, len(s.tombs))
	for id, t := range s.tombs {
		out[id] = t.version
	}
	return out
}

// HasTombstone reports whether a retained tombstone exists for id.
func (s *Store) HasTombstone(id string) bool {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	_, ok := s.tombs[id]
	return ok
}

// tombstoneVersion returns the retained delete version for id.
func (s *Store) tombstoneVersion(id string) (uint64, bool) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t, ok := s.tombs[id]
	return t.version, ok
}

// Versions returns every held entity's version keyed by ID — the
// census anti-entropy diffs between replicas to find divergence.
func (s *Store) Versions() map[string]uint64 {
	out := make(map[string]uint64)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, e := range sh.entities {
			out[id] = e.Version
		}
		sh.mu.RUnlock()
	}
	return out
}

// Annotate appends annotations to a stored entity — the miner write-back
// path. It reports whether the entity existed; on a durable store the
// annotations are write-ahead-logged before they become visible, and the
// error is non-nil when the log cannot be appended (degraded mode).
func (s *Store) Annotate(id string, anns []Annotation) (bool, error) {
	if len(anns) == 0 {
		return s.View(id, func(*Entity) {}), nil // a presence check: no clone, unlike Get
	}
	if s.dur == nil {
		// Inlined apply: the closure below would heap-allocate per call
		// on this hot path just to be invoked immediately.
		sh := s.shardFor(id)
		sh.mu.Lock()
		e, ok := sh.entities[id]
		if ok {
			e.Annotations = append(e.Annotations, anns...)
		}
		sh.mu.Unlock()
		return ok, nil
	}
	found := false
	apply := func() {
		sh := s.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if e, ok := sh.entities[id]; ok {
			e.Annotations = append(e.Annotations, anns...)
			found = true
		}
	}
	// Skip logging a record for an entity that is already gone; the
	// existence re-check inside apply still guards the racing delete.
	if !s.View(id, func(*Entity) {}) {
		return false, nil
	}
	rec, err := encodeAnnotate(id, anns)
	if err != nil {
		return false, fmt.Errorf("store: encode annotations for %s: %w", id, err)
	}
	if err := s.logged(rec, apply); err != nil {
		return false, err
	}
	return found, nil
}

// Update applies fn to the stored entity, persisting the mutation
// atomically with respect to other writers. It returns false if the ID is
// unknown. On a durable store the mutated entity is re-logged in full (a
// read-modify-write), so prefer Annotate for the hot append-annotations
// path. Update waits until every record logged before it is applied and
// nobody owns the WAL, then reads, runs fn and commits its record as a
// batch of its own while later writers queue behind it — so a concurrent
// Annotate or Update acknowledged in between cannot be overwritten by a
// stale full-entity put.
func (s *Store) Update(id string, fn func(*Entity)) bool {
	if s.dur == nil {
		sh := s.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		e, ok := sh.entities[id]
		if !ok {
			return false
		}
		fn(e)
		return true
	}
	d := s.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy || len(d.next) > 0 {
		d.idle.Wait()
	}
	e, ok := s.Get(id)
	if !ok {
		return false
	}
	fn(e)
	rec, err := encodePut(e)
	if err != nil {
		return false
	}
	req := &walReq{rec: rec, apply: func() { s.applyPut(e) }}
	s.commitLocked([]*walReq{req})
	return req.err == nil
}

// Len returns the total number of stored entities.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.entities)
		sh.mu.RUnlock()
	}
	return n
}

// ForEachInShard iterates the entities of one shard in deterministic
// (ID-sorted) order, passing copies to fn. Iteration stops at the first
// error, which is returned.
func (s *Store) ForEachInShard(shardIdx int, fn func(*Entity) error) error {
	return s.ForEachInShardWithDeadline(shardIdx, time.Time{}, fn)
}

// ForEachInShardWithDeadline is ForEachInShard under an absolute
// deadline (zero = unbounded). The deadline is polled once per entity;
// when it passes, iteration stops and ErrDeadlineExceeded is returned so
// a deadline-bounded caller sheds the rest of the scan instead of
// finishing it late.
func (s *Store) ForEachInShardWithDeadline(shardIdx int, deadline time.Time, fn func(*Entity) error) error {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return fmt.Errorf("store: shard %d out of range [0,%d)", shardIdx, len(s.shards))
	}
	sh := s.shards[shardIdx]
	sh.mu.RLock()
	ids := make([]string, 0, len(sh.entities))
	for id := range sh.entities {
		ids = append(ids, id)
	}
	sh.mu.RUnlock()
	sort.Strings(ids)
	for _, id := range ids {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrDeadlineExceeded
		}
		e, ok := s.Get(id)
		if !ok {
			continue // deleted concurrently
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// ForEach iterates every entity across all shards in deterministic order.
func (s *Store) ForEach(fn func(*Entity) error) error {
	return s.ForEachWithDeadline(time.Time{}, fn)
}

// ForEachWithDeadline is ForEach under an absolute deadline (zero =
// unbounded); see ForEachInShardWithDeadline.
func (s *Store) ForEachWithDeadline(deadline time.Time, fn func(*Entity) error) error {
	for i := range s.shards {
		if err := s.ForEachInShardWithDeadline(i, deadline, fn); err != nil {
			return err
		}
	}
	return nil
}

// IDs returns all entity IDs, sorted.
func (s *Store) IDs() []string {
	var ids []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.entities {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}
