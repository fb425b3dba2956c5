// Package store implements the WebFountain data store: a sharded,
// concurrency-safe repository of entities.
//
// An entity is a referenceable unit of information such as a web page,
// represented in XML. The store supports put/get/delete, per-shard
// iteration (the unit of parallelism of the index build), and miner
// annotations attached to entities. Sharding is by FNV hash of the entity
// ID, mirroring the shared-nothing layout of the production system where
// each node owns a disjoint slice of the corpus.
package store

import (
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
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
	// Annotations are miner outputs attached to the entity.
	Annotations []Annotation `xml:"annotations>annotation,omitempty"`
}

// Clone returns a deep copy of the entity.
func (e *Entity) Clone() *Entity {
	cp := new(Entity)
	e.cloneInto(cp)
	return cp
}

// cloneInto makes cp a deep copy of e.
func (e *Entity) cloneInto(cp *Entity) {
	*cp = *e
	cp.Links = append([]string(nil), e.Links...)
	cp.Annotations = append([]Annotation(nil), e.Annotations...)
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

// shard is one mutex-guarded slice of the keyspace. A stored ID is in
// exactly one of its maps. entities holds the entities kept in memory:
// every entity of an in-memory store, and those of a durable store that
// have no log record to point into (loaded from a snapshot, or made
// resident by a compaction). refs, nil on an in-memory store, is the
// keydir of a durable store: for each other entity, where its records
// are in the write-ahead log, from which every read decodes it.
type shard struct {
	mu       sync.RWMutex
	entities map[string]*Entity
	refs     map[string]logRefs
}

// recRef locates one write-ahead-log record: the generation of its log
// file (generations are at most eight decimal digits), the offset of its
// frame and the frame's length.
type recRef struct {
	gen uint32
	n   uint32
	off int64
}

// logRefs is a logged entity's keydir slot: its put record and the
// annotate records logged after it, in log order, the first of them
// inline (ann.n == 0 while there is none).
type logRefs struct {
	put  recRef
	ann  recRef
	more []recRef
}

func (l *logRefs) add(r recRef) {
	if l.ann.n == 0 {
		l.ann = r
	} else {
		l.more = append(l.more, r)
	}
}

// below reports whether any of the entity's records is in a generation
// below gen.
func (l *logRefs) below(gen uint64) bool {
	if uint64(l.put.gen) < gen || l.ann.n > 0 && uint64(l.ann.gen) < gen {
		return true
	}
	for _, r := range l.more {
		if uint64(r.gen) < gen {
			return true
		}
	}
	return false
}

// Store is a sharded entity repository, safe for concurrent use. A store
// built with New is purely in-memory; one built with Open additionally
// write-ahead-logs every mutation to disk, recovers it on restart, and
// reads the entities it logged back from the log instead of keeping
// them in memory.
type Store struct {
	shards []*shard
	// dur is the durability state, nil for in-memory stores.
	dur *durability
}

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
// sync policy). It is a PutBatch of one.
func (s *Store) Put(e *Entity) error { return s.PutBatch([]*Entity{e}, nil) }

// PutBatch stores (or replaces) entities, each followed by the
// annotations anns[i] appends to it (anns may be nil, and an empty
// anns[i] appends none), as one commit — the ingest path's write. An
// in-memory store keeps its own copies of the entities, made in one
// allocation for the batch, and takes the annotation slices as they
// are: the caller must not modify anns[i] after the call. A durable
// store keeps neither: it logs the batch as each entity's put record
// and then its annotate record, in input order and byte for byte what
// Put and Annotate log, in one WAL write under one sync, and then
// records where each record landed, under keys cut from one copy of the
// batch's IDs. Nothing is applied until the records are durable, and a
// refused commit applies none of them (the store degrades). A nil error
// means every entity and annotation of the batch is visible and
// recoverable after a crash (subject to the sync policy).
func (s *Store) PutBatch(ents []*Entity, anns [][]Annotation) error {
	if anns != nil && len(anns) != len(ents) {
		return fmt.Errorf("store: put batch of %d entities with %d annotation lists", len(ents), len(anns))
	}
	for _, e := range ents {
		if e == nil || e.ID == "" {
			return fmt.Errorf("store: entity must have an ID")
		}
	}
	if len(ents) == 0 {
		return nil
	}
	if s.dur == nil {
		copies := make([]Entity, len(ents)) // the store's copies, in one allocation
		for i, e := range ents {
			c := &copies[i]
			e.cloneInto(c)
			switch {
			case anns == nil || len(anns[i]) == 0:
			case len(c.Annotations) == 0:
				c.Annotations = anns[i] // the batch's own slice: no second copy
			default:
				c.Annotations = append(c.Annotations, anns[i]...)
			}
			s.install(c)
		}
		return nil
	}
	bp, _ := walBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	rec, n := appendBatch((*bp)[:0], ents, anns)
	err := s.logged(rec, n, func(gen uint32, off int64) { s.loggedBatch(ents, anns, rec, gen, off) })
	if cap(rec) <= maxPooledBuf {
		*bp = rec
		walBufs.Put(bp)
	}
	return err
}

// loggedBatch installs the keydir slots of a committed PutBatch whose
// records rec landed at off in generation gen's log.
func (s *Store) loggedBatch(ents []*Entity, anns [][]Annotation, rec []byte, gen uint32, off int64) {
	n := 0
	for _, e := range ents {
		n += len(e.ID)
	}
	var b strings.Builder
	b.Grow(n)
	for _, e := range ents {
		b.WriteString(e.ID)
	}
	keys, pos := b.String(), 0
	for i, e := range ents {
		id := keys[:len(e.ID)]
		keys = keys[len(e.ID):]
		r := logRefs{put: frameAt(rec, pos, gen, off)}
		pos += int(r.put.n)
		if anns != nil && len(anns[i]) > 0 {
			r.ann = frameAt(rec, pos, gen, off)
			pos += int(r.ann.n)
		}
		s.setRefs(id, r)
	}
}

// frameAt is the reference to the record framed at rec[pos:], where rec
// landed at off in generation gen's log.
func frameAt(rec []byte, pos int, gen uint32, off int64) recRef {
	return recRef{gen: gen, n: walHeaderSize + binary.LittleEndian.Uint32(rec[pos:]), off: off + int64(pos)}
}

// Entity kinds, for the durable store's gauges.
const (
	absent = iota
	resident
	logged
)

// kind reports how the shard holds id. The caller holds sh.mu.
func (sh *shard) kind(id string) int {
	if _, ok := sh.entities[id]; ok {
		return resident
	}
	if _, ok := sh.refs[id]; ok {
		return logged
	}
	return absent
}

// moved counts one entity of a durable store's shard moving from one
// kind to another in the process-wide gauges.
func (sh *shard) moved(from, to int) {
	if sh.refs == nil || from == to {
		return
	}
	if from != absent {
		kindGauges[from].Add(-1)
	}
	if to != absent {
		kindGauges[to].Add(1)
	}
}

// install puts e itself in its shard, resident. Its XMLName is cleared,
// so a stored entity is the same value however it arrived (a put, a
// parsed XML entity, a replayed record of either format).
func (s *Store) install(e *Entity) {
	e.XMLName = xml.Name{}
	sh := s.shardFor(e.ID)
	sh.mu.Lock()
	from := sh.kind(e.ID)
	delete(sh.refs, e.ID)
	sh.entities[e.ID] = e
	sh.moved(from, resident)
	sh.mu.Unlock()
}

// setRefs makes id a logged entity whose records are r, replacing
// whatever the store held under it. id is kept as the key.
func (s *Store) setRefs(id string, r logRefs) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	from := sh.kind(id)
	delete(sh.entities, id)
	sh.refs[id] = r
	sh.moved(from, logged)
	sh.mu.Unlock()
}

// remove drops id from its shard.
func (s *Store) remove(id string) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	from := sh.kind(id)
	delete(sh.entities, id)
	delete(sh.refs, id)
	sh.moved(from, absent)
	sh.mu.Unlock()
}

// lookup returns the entity stored under id: a resident one itself
// (owned false), or a logged one decoded from its records (owned true);
// nil when there is none, or with the error that kept a logged one from
// being read. The caller holds sh.mu.
func (s *Store) lookup(sh *shard, id string) (e *Entity, owned bool, err error) {
	if e, ok := sh.entities[id]; ok {
		return e, false, nil
	}
	r, ok := sh.refs[id]
	if !ok {
		return nil, false, nil
	}
	e, err = s.dur.load(id, r)
	return e, true, err
}

// Get returns a copy of the entity with the given ID. On a durable store
// a logged entity is read back from its log records; a record that fails
// its checksum or cannot be read reports the entity absent, counts in
// store.read.errors and degrades the store.
func (s *Store) Get(id string) (*Entity, bool) {
	e, err := s.get(id)
	if err != nil {
		s.readFailed(err)
		return nil, false
	}
	return e, e != nil
}

// get is Get returning the read error instead of acting on it.
func (s *Store) get(id string) (*Entity, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, owned, err := s.lookup(sh, id)
	if e != nil && !owned {
		e = e.Clone()
	}
	sh.mu.RUnlock()
	return e, err
}

// View runs fn on the stored entity under its shard's read lock,
// skipping the defensive clone Get makes: the live entity when it is
// resident, the one just decoded from the log when it is logged. fn
// must not mutate the entity or retain it (or its slices) past the
// call; retaining plain string fields is fine, strings are immutable. fn
// must not call back into the store — the shard lock is held. Returns
// false when the ID is absent, or unreadable as Get reports it.
func (s *Store) View(id string, fn func(*Entity)) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, _, err := s.lookup(sh, id)
	if e != nil {
		fn(e)
	}
	sh.mu.RUnlock()
	if err != nil {
		s.readFailed(err)
	}
	return e != nil
}

// has reports whether id is stored, from the keydir alone.
func (s *Store) has(id string) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.kind(id) != absent
}

// Delete removes an entity; deleting a missing ID is a no-op. On a
// durable store the delete is write-ahead-logged first; the error is
// non-nil only when the log cannot be appended (degraded mode).
func (s *Store) Delete(id string) error {
	if s.dur == nil {
		s.remove(id)
		return nil
	}
	return s.logged(encodeWALRecord(opDelete, []byte(id)), 1, func(uint32, int64) { s.remove(id) })
}

// Annotate appends annotations to a stored entity — the miner write-back
// path. It reports whether the entity existed; on a durable store the
// annotations are write-ahead-logged before they become visible, and the
// error is non-nil when the log cannot be appended (degraded mode). A
// durable store keeps where the record landed, not anns.
func (s *Store) Annotate(id string, anns []Annotation) (bool, error) {
	if len(anns) == 0 {
		return s.has(id), nil
	}
	if s.dur == nil {
		return s.annotated(id, anns, recRef{}), nil
	}
	// Skip logging a record for an entity that is already gone; the
	// existence re-check in annotated still guards the racing delete.
	if !s.has(id) {
		return false, nil
	}
	rec := encodeAnnotate(id, anns)
	found := false
	err := s.logged(rec, 1, func(gen uint32, off int64) {
		found = s.annotated(id, anns, recRef{gen: gen, n: uint32(len(rec)), off: off})
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// annotated adds the annotate record r, carrying anns, to id's entity:
// anns to a resident one, r to a logged one's records. It reports
// whether the entity existed.
func (s *Store) annotated(id string, anns []Annotation, r recRef) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entities[id]; ok {
		e.Annotations = append(e.Annotations, anns...)
		return true
	}
	refs, ok := sh.refs[id]
	if ok {
		refs.add(r)
		sh.refs[id] = refs
	}
	return ok
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
	e, err := s.get(id)
	if err != nil {
		d.readFailedLocked(err)
	}
	if e == nil {
		return false
	}
	fn(e)
	rec, key := encodePut(e), strings.Clone(e.ID)
	req := &walReq{rec: rec, n: 1, apply: func(gen uint32, off int64) {
		s.setRefs(key, logRefs{put: recRef{gen: gen, n: uint32(len(rec)), off: off}})
	}}
	s.commitLocked([]*walReq{req})
	return req.err == nil
}

// Len returns the total number of stored entities.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.entities) + len(sh.refs)
		sh.mu.RUnlock()
	}
	return n
}

// appendIDs appends the shard's IDs to ids.
func (sh *shard) appendIDs(ids []string) []string {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for id := range sh.entities {
		ids = append(ids, id)
	}
	for id := range sh.refs {
		ids = append(ids, id)
	}
	return ids
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
// finishing it late. An entity Get reports absent is skipped.
func (s *Store) ForEachInShardWithDeadline(shardIdx int, deadline time.Time, fn func(*Entity) error) error {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return fmt.Errorf("store: shard %d out of range [0,%d)", shardIdx, len(s.shards))
	}
	ids := s.shards[shardIdx].appendIDs(nil)
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
		ids = sh.appendIDs(ids)
	}
	sort.Strings(ids)
	return ids
}
