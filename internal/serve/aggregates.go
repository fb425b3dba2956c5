package serve

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webfountain/internal/tokenize"
)

// Fact is one extracted sentiment mention, the unit the aggregate layer
// consumes at ingest: who it is about, which feature phrase the
// sentiment was directed at, when the document was published, which way
// the sentiment points and where it was found. Its strings may be cut
// from anything — a request body, a record decoded from the log — since
// Apply copies what it keeps.
type Fact struct {
	// Subject is the subject the sentiment is about (case-insensitive;
	// normalized to lower case on apply).
	Subject string
	// Feature is the target phrase the sentiment was directed at ("")
	// when the miner did not resolve one). It is the paper's
	// feature-level dimension: "battery life" vs the camera itself.
	Feature string
	// Date is the document's publication date in YYYY-MM-DD form; facts
	// without a parseable month count toward totals and aspects but not
	// toward any time bucket.
	Date string
	// Positive is the polarity (false = negative).
	Positive bool
	// Doc, Sentence and Snippet locate the mention: the document ID, the
	// sentence index within it and the sentence text, for display.
	Doc      string
	Sentence int
	Snippet  string
}

// Bucket is one month of a subject's materialized sentiment series.
type Bucket struct {
	// Month is "YYYY-MM".
	Month string `json:"month"`
	Counts
}

// AspectCount is one feature's tally within a subject.
type AspectCount struct {
	// Feature is the sentiment target phrase.
	Feature string `json:"feature"`
	Counts
}

// subjectAgg is one subject's cells: the polarity totals, the per-month
// time buckets, the per-feature aspect tallies and the served entries.
// Once published in a View it is immutable — Apply clones touched
// subjects before mutating. The clone shares the entries' backing
// arrays: entries are append-only, and a View reads only the lengths it
// was published with, so a later append never changes what an older
// View serves. Anything that removes or rewrites an entry must copy
// them first.
//
// The month buckets and the aspect tallies share one slice, cells, so
// that a clone copies them in one allocation: the months sorted by
// month, then the aspects sorted by lower-cased feature.
//
// The entries are packed (entry) and kept in chunks, so that an append
// never copies more than one chunk: full holds chunks of exactly
// entryChunk entries, never written again, and tail the fewer than
// entryChunk entries after them. A subject's first chunk grows by
// doubling, so a subject with a few entries holds a few; each later one
// is allocated whole. An entry holds no pointer, so neither does a
// chunk, and the collector never scans one.
type subjectAgg struct {
	key     string // the lower-cased subject, its key in View.subjects
	gen     uint64 // the generation that created this copy
	total   Counts
	cells   []cell
	nMonths int // cells[:nMonths] are the months, cells[nMonths:] the aspects
	full    [][]entry
	tail    []entry
}

// entry is one served entry as its subject keeps it, in 12 bytes: where
// its snippet record is in one of the view's texts, the feature as an
// index into the view's feature table, and the polarity. The subject is
// the subjectAgg's key. View.Entries builds the Entry a client sees from
// it.
//
// A text holds two kinds of record. A document record is the document
// ID, length-prefixed (uvarint). A snippet record is the sentence index
// (varint), the distance back to its document's record (uvarint) and the
// snippet sentence, length-prefixed. The facts of one sentence of one
// document share a snippet record when their snippets are equal, so the
// sentence and the document are kept once per record rather than once
// per entry. No input overflows a field: a record's lengths and
// sentence are varints, so an ID, a snippet or a sentence index may be
// of any size; Stage starts a new text before an offset would pass 32
// bits; and the text and feature indexes count texts and distinct
// features.
type entry struct {
	text    uint32 // index of the text in View.texts
	snippet uint32 // offset of the snippet record in the text
	feature uint32 // index in View.features << 1, | 1 when positive
}

// cell is one tally of a subject, keyed by a month ("YYYY-MM") or a
// lower-cased feature.
type cell struct {
	key string
	Counts
}

// entryChunk is the number of entries in one full chunk of a subject's
// entries: 128 entries of 24 bytes, 3 KiB. A subject past its first
// chunk holds up to one chunk unused, so the chunk is kept small: at
// 512 entries of 88 bytes, the subjects of the benchmark's query_storm
// stream held 0.36 MB of unused chunks.
const entryChunk = 128

func (s *subjectAgg) clone() *subjectAgg {
	return &subjectAgg{
		key:     s.key,
		total:   s.total,
		cells:   append(make([]cell, 0, len(s.cells)+2), s.cells...), // room for a new month or feature
		nMonths: s.nMonths,
		full:    s.full,
		tail:    s.tail,
	}
}

func (s *subjectAgg) months() []cell  { return s.cells[:s.nMonths] }
func (s *subjectAgg) aspects() []cell { return s.cells[s.nMonths:] }

// tally returns the month's cell (month true) or the feature's, inserted
// in key order when the subject has none. A new month's key is a copy:
// one cut from a fact's date would keep what it was cut from alive.
// Only a copy this publish made may be tallied.
func (s *subjectAgg) tally(month bool, key string) *Counts {
	lo, hi := s.nMonths, len(s.cells)
	if month {
		lo, hi = 0, s.nMonths
	}
	i, found := slices.BinarySearchFunc(s.cells[lo:hi], key, func(c cell, k string) int { return strings.Compare(c.key, k) })
	i += lo
	if !found {
		if month {
			key = strings.Clone(key)
			s.nMonths++
		}
		s.cells = slices.Insert(s.cells, i, cell{key: key})
	}
	return &s.cells[i].Counts
}

// addEntry appends one entry, starting a new chunk when the tail is
// full.
func (s *subjectAgg) addEntry(e entry) {
	switch {
	case len(s.tail) == entryChunk:
		s.full = append(s.full, s.tail)
		s.tail = make([]entry, 0, entryChunk)
	case len(s.tail) == cap(s.tail) && 2*cap(s.tail) > entryChunk:
		s.tail = append(make([]entry, 0, entryChunk), s.tail...) // the first chunk's last growth
	}
	s.tail = append(s.tail, e)
}

// numEntries is the number of entries the subject holds.
func (s *subjectAgg) numEntries() int { return len(s.full)*entryChunk + len(s.tail) }

// View is an immutable snapshot of the materialized aggregates. Readers
// obtain one with Aggregates.View — a single atomic pointer load, the
// same reader discipline as the inverted index's posting snapshots —
// and may then query it without any locking for as long as they like.
//
// texts and features are the tables the entries point into. Both are
// append-only and share their backing arrays between views, as the
// entry chunks do: a view reads only the lengths it was published with.
type View struct {
	gen      uint64
	subjects map[string]*subjectAgg
	names    []string // sorted subject keys
	totals   Counts
	facts    int
	texts    []string // the staged texts: document IDs and snippet sentences
	features []string // the distinct features as given; features[0] is ""
}

// Generation is the ingest-batch counter the view was built at. Every
// applied batch — even an empty one — bumps it, so a cached response
// tagged with a generation is provably no staler than one ingest batch.
func (v *View) Generation() uint64 { return v.gen }

// Facts returns the number of facts folded into the view.
func (v *View) Facts() int { return v.facts }

// Totals returns the corpus-wide polarity tally.
func (v *View) Totals() Counts { return v.totals }

// Subjects returns every aggregated subject, sorted. The slice is
// shared with the view and must not be mutated.
func (v *View) Subjects() []string { return v.names }

// Counts returns a subject's polarity totals (zero when unknown).
func (v *View) Counts(subject string) Counts {
	if s := v.subjects[strings.ToLower(subject)]; s != nil {
		return s.total
	}
	return Counts{}
}

// Series returns a subject's monthly sentiment buckets, chronologically
// — the materialized equivalent of the offline trend miner's Series.
func (v *View) Series(subject string) []Bucket {
	s := v.subjects[strings.ToLower(subject)]
	if s == nil {
		return nil
	}
	out := make([]Bucket, 0, s.nMonths)
	for _, c := range s.months() {
		out = append(out, Bucket{Month: c.key, Counts: c.Counts})
	}
	return out
}

// Entries returns a subject's sentiment-bearing mentions, ordered by
// document, sentence, polarity ("+" first), feature and snippet — a total
// key, so the order does not depend on the order of ingest. The slice is
// the caller's; its strings share the view's texts.
func (v *View) Entries(subject string) []Entry {
	s := v.subjects[strings.ToLower(subject)]
	if s == nil {
		return nil
	}
	out := make([]Entry, 0, s.numEntries())
	for _, c := range s.full {
		out = v.appendEntries(out, s.key, c)
	}
	out = v.appendEntries(out, s.key, s.tail)
	// Sorting the 88-byte entries themselves moves each O(log n) times,
	// with a write barrier for every string while the collector runs;
	// sorting their indexes and then moving each entry once into place
	// took a 4 000-entry render from ≈ 2.2 to ≈ 0.9 ms.
	perm := make([]int32, len(out))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		a, b := &out[i], &out[j]
		if c := strings.Compare(a.Doc, b.Doc); c != 0 {
			return c
		}
		if a.Sentence != b.Sentence {
			return cmp.Compare(a.Sentence, b.Sentence)
		}
		if c := strings.Compare(a.Polarity, b.Polarity); c != 0 {
			return c
		}
		if c := strings.Compare(a.Feature, b.Feature); c != 0 {
			return c
		}
		return strings.Compare(a.Snippet, b.Snippet)
	})
	// out[j] takes the entry at perm[j], one cycle of the permutation at
	// a time; a placed index is marked -1.
	for start := range perm {
		if perm[start] < 0 {
			continue
		}
		first, j := out[start], start
		for {
			k := int(perm[j])
			perm[j] = -1
			if k == start {
				out[j] = first
				break
			}
			out[j], j = out[k], k
		}
	}
	return out
}

// appendEntries appends the Entry of each of a subject's packed entries.
func (v *View) appendEntries(out []Entry, subject string, es []entry) []Entry {
	for i := range es {
		e := &es[i]
		text, pol := v.texts[e.text], "-"
		if e.feature&1 != 0 {
			pol = "+"
		}
		at := int(e.snippet)
		sentence, at := varint(text, at)
		back, at := uvarint(text, at)
		out = append(out, Entry{Subject: subject, Polarity: pol, Doc: field(text, e.snippet-uint32(back)),
			Sentence: int(sentence), Snippet: field(text, uint32(at)), Feature: v.features[e.feature>>1]})
	}
	return out
}

// field returns the length-prefixed string at off in text.
func field(text string, off uint32) string {
	n, i := uvarint(text, int(off))
	return text[i : i+int(n)]
}

// uvarint decodes the uvarint at i in text and returns it and the
// offset past it.
func uvarint(text string, i int) (uint64, int) {
	var x uint64
	for shift := 0; ; shift += 7 {
		b := text[i]
		i++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, i
		}
	}
}

// varint decodes the zig-zag varint binary.AppendVarint wrote at i.
func varint(text string, i int) (int64, int) {
	ux, i := uvarint(text, i)
	return int64(ux>>1) ^ -int64(ux&1), i
}

// Aspects returns a subject's per-feature tallies, most-mentioned
// first (ties by feature name, so the order is total).
func (v *View) Aspects(subject string) []AspectCount {
	s := v.subjects[strings.ToLower(subject)]
	if s == nil {
		return nil
	}
	out := make([]AspectCount, 0, len(s.cells)-s.nMonths)
	for _, c := range s.aspects() {
		out = append(out, AspectCount{Feature: c.key, Counts: c.Counts})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Feature < out[j].Feature
	})
	return out
}

// Staged is facts copied for a publish, so that nothing they were cut
// from stays reachable: what the aggregates keep of them — each
// document's ID once and each distinct snippet sentence of a document
// once — in texts a published view keeps as they are, and the subjects,
// features and months they are filed under in keys, which the publish
// reads and drops. Stage makes one; the zero Staged holds no facts.
type Staged struct {
	parts []stagedPart
	facts []stagedFact
}

// stagedPart is one text of a Staged and the keys that go with it.
type stagedPart struct{ text, keys string }

// stagedFact is one staged fact: its entry, whose text is an index in
// Staged.parts and whose feature holds only the polarity bit, and the
// offsets of its length-prefixed subject, feature and month in the
// part's keys.
type stagedFact struct {
	e                       entry
	subject, feature, month uint32
}

// maxText is the largest offset a staged text or keys string is given;
// the next string past it starts a new one. A variable, so that a test
// can make the split happen.
var maxText uint64 = math.MaxUint32

// Stage copies facts for a publish: Apply stages its batch, and
// ApplyRecovered publishes documents staged one by one. It is safe for
// concurrent use, so a document's facts can be staged where they are
// read. Adjacent facts of one document share its record, and adjacent
// facts of one sentence of it an equal snippet's.
func Stage(facts []Fact) Staged {
	if len(facts) == 0 {
		return Staged{}
	}
	st := Staged{facts: make([]stagedFact, len(facts))}
	b, _ := stageBufs.Get().(*stageBuf)
	if b == nil {
		b = new(stageBuf)
	}
	text, keys := b.text[:0], b.keys[:0]
	part := 0 // the first fact of the current text
	run := 0  // the first fact of the current document's record
	var doc uint32
	for i := range facts {
		f, sf := &facts[i], &st.facts[i]
		month := monthOf(f.Date)
		if i > part && (uint64(len(text)+prefixed(f.Doc)) > maxText ||
			uint64(len(keys)+prefixed(f.Subject)+prefixed(f.Feature)) > maxText) {
			st.parts = append(st.parts, stagedPart{string(text), string(keys)})
			text, keys, part = text[:0], keys[:0], i
		}
		sf.e = entry{text: uint32(len(st.parts))}
		if f.Positive {
			sf.e.feature = 1
		}
		if i == part {
			text, doc = put(text, f.Doc)
			keys, sf.subject = put(keys, f.Subject)
			keys, sf.feature = put(keys, f.Feature)
			keys, sf.month = put(keys, month)
			run = i
		} else {
			prev, pf := &facts[i-1], &st.facts[i-1]
			sf.subject, sf.feature, sf.month = pf.subject, pf.feature, pf.month
			if f.Doc != prev.Doc {
				text, doc = put(text, f.Doc)
				run = i
			}
			if f.Subject != prev.Subject {
				keys, sf.subject = put(keys, f.Subject)
			}
			if f.Feature != prev.Feature {
				keys, sf.feature = put(keys, f.Feature)
			}
			if month != monthOf(prev.Date) {
				keys, sf.month = put(keys, month)
			}
		}
		// An earlier fact of the same sentence of the same document
		// record may hold the snippet record already.
		snippet := false
		for j := i - 1; j >= run && facts[j].Sentence == f.Sentence; j-- {
			if facts[j].Snippet == f.Snippet {
				sf.e.snippet, snippet = st.facts[j].e.snippet, true
				break
			}
		}
		if !snippet {
			sf.e.snippet = offset(text)
			text = binary.AppendVarint(text, int64(f.Sentence))
			text = binary.AppendUvarint(text, uint64(sf.e.snippet-doc))
			text, _ = put(text, f.Snippet)
		}
	}
	st.parts = append(st.parts, stagedPart{string(text), string(keys)})
	if cap(text)+cap(keys) <= maxPooledBuf {
		b.text, b.keys = text, keys
		stageBufs.Put(b)
	}
	return st
}

// stageBufs holds Stage's write buffers between calls, as *stageBuf;
// like bodyBufs, it keeps none above maxPooledBuf. Stage copies what
// it wrote out of them, into strings of their exact length.
var stageBufs sync.Pool

type stageBuf struct{ text, keys []byte }

// prefixed is the number of bytes put writes for s.
func prefixed(s string) int {
	n := 1
	for x := uint64(len(s)); x >= 0x80; x >>= 7 {
		n++
	}
	return n + len(s)
}

// put appends s, length-prefixed, and returns its offset.
func put(buf []byte, s string) ([]byte, uint32) {
	off := offset(buf)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...), off
}

// offset returns the offset of the next record in buf. Stage starts a
// new text before a record could start past 32 bits, unless the text's
// first record, a string of 4 GiB, takes it there alone.
func offset(buf []byte) uint32 {
	if uint64(len(buf)) > math.MaxUint32 {
		panic("serve: a staged string over 4 GiB")
	}
	return uint32(len(buf))
}

// Aggregates maintains the materialized sentiment aggregates. Writers
// (ingest batches) serialize on a mutex and publish copy-on-write
// snapshots; readers load the current View with one atomic pointer
// load and never block a writer or another reader.
type Aggregates struct {
	mu   sync.Mutex
	view atomic.Pointer[View]
	// features finds a feature, as given, in the feature table and its
	// lower-cased aspect key; lower interns the lower-cased keys, so a
	// feature's spellings tally under one string. Guarded by mu.
	features map[string]feature
	lower    map[string]string
}

// feature is a feature's place in the feature table and its aspect key.
type feature struct {
	index uint32
	lower string
}

// NewAggregates returns an empty aggregate store at generation 0.
func NewAggregates() *Aggregates {
	a := &Aggregates{features: map[string]feature{"": {}}, lower: map[string]string{}}
	a.view.Store(&View{subjects: map[string]*subjectAgg{}, features: []string{""}})
	return a
}

// View returns the current immutable snapshot (never nil).
func (a *Aggregates) View() *View { return a.view.Load() }

// Apply folds one ingest batch's facts into the aggregates and
// publishes a new snapshot, returning its generation. Apply copies what
// it keeps (Stage); the facts are the caller's again when it returns.
// The generation bumps even for an empty batch: the corpus changed
// (documents were ingested), so every cached response keyed on the old
// generation must re-render. Only subjects touched by the batch are
// cloned; untouched subjects are shared structurally with the previous
// view, and so is the sorted name list unless the batch brought a new
// subject.
func (a *Aggregates) Apply(facts []Fact) uint64 { return a.publish([]Staged{Stage(facts)}) }

// ApplyRecovered publishes recovered documents as one snapshot, one
// Staged per document, and advances the generation by their number:
// every document was acked by a batch of at least one, so the
// generation a restart lands on is never below the one the previous
// process had published for the same documents. Zero documents publish
// nothing.
func (a *Aggregates) ApplyRecovered(docs []Staged) uint64 {
	if len(docs) == 0 {
		return a.View().gen
	}
	return a.publish(docs)
}

func (a *Aggregates) publish(docs []Staged) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.view.Load()
	n := 0
	for _, d := range docs {
		n += len(d.facts)
	}
	next := &View{
		gen:      old.gen + uint64(len(docs)),
		subjects: make(map[string]*subjectAgg, len(old.subjects)+4),
		names:    old.names,
		totals:   old.totals,
		facts:    old.facts + n,
		texts:    old.texts,
		features: old.features,
	}
	for k, v := range old.subjects {
		next.subjects[k] = v
	}
	added := false
	for _, d := range docs {
		base := len(next.texts)
		if uint64(base+len(d.parts)) > math.MaxUint32 {
			panic("serve: more than 2^32 texts")
		}
		for _, p := range d.parts {
			next.texts = append(next.texts, p.text)
		}
		for i := range d.facts {
			sf := &d.facts[i]
			keys := d.parts[sf.e.text].keys
			// The subject, and the feature through lower, are found
			// through keys folded on the stack; only a new one allocates
			// its key. A subject copied for this publish carries its
			// generation, so it is cloned once however many facts touch
			// it.
			var buf [64]byte
			subject := field(keys, sf.subject)
			s := next.subjects[string(tokenize.Fold(buf[:0], subject))]
			switch {
			case s == nil:
				key := ownLower(subject)
				s = &subjectAgg{key: key, gen: next.gen}
				next.subjects[key] = s
				added = true
			case s.gen != next.gen:
				s = s.clone()
				s.gen = next.gen
				next.subjects[s.key] = s
			}
			e := sf.e
			e.text += uint32(base)
			bump := func(c *Counts) {
				if e.feature&1 != 0 {
					c.Positive++
				} else {
					c.Negative++
				}
			}
			bump(&s.total)
			bump(&next.totals)
			if m := field(keys, sf.month); m != "" {
				bump(s.tally(true, m))
			}
			if name := field(keys, sf.feature); name != "" {
				f, ok := a.features[name]
				if !ok {
					if len(next.features) >= 1<<31 {
						panic("serve: more than 2^31 features")
					}
					name = strings.Clone(name)
					f.index = uint32(len(next.features))
					if f.lower, ok = a.lower[string(tokenize.Fold(buf[:0], name))]; !ok {
						f.lower = strings.ToLower(name) // name is a copy already
						a.lower[f.lower] = f.lower
					}
					next.features = append(next.features, name)
					a.features[name] = f
				}
				e.feature |= f.index << 1
				bump(s.tally(false, f.lower))
			}
			s.addEntry(e)
		}
	}
	if added {
		next.names = make([]string, 0, len(next.subjects))
		for k := range next.subjects {
			next.names = append(next.names, k)
		}
		sort.Strings(next.names)
	}
	a.view.Store(next)
	return next.gen
}

// ownLower returns s lower-cased in a string of its own: strings.ToLower
// returns s itself when it is lower-case already, and a key cut from a
// fact would keep the text the fact was cut from alive.
func ownLower(s string) string {
	if l := strings.ToLower(s); l != s {
		return l
	}
	return strings.Clone(s)
}

// monthOf extracts "YYYY-MM" from a "YYYY-MM-DD" date ("" if
// malformed) — the same bucketing rule as the offline trend miner.
func monthOf(date string) string {
	if len(date) < 7 || date[4] != '-' {
		return ""
	}
	return date[:7]
}
