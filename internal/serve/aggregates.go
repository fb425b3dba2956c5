package serve

import (
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
// the sentiment points and where it was found.
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
// The entries are kept in chunks, so that an append never copies more
// than one chunk: full holds chunks of exactly entryChunk entries, never
// written again, and tail the fewer than entryChunk entries after them.
// A subject's first chunk grows by doubling, so a subject with a few
// entries holds a few; each later one is allocated whole.
type subjectAgg struct {
	key     string // the lower-cased subject, its key in View.subjects
	gen     uint64 // the generation that created this copy
	total   Counts
	cells   []cell
	nMonths int // cells[:nMonths] are the months, cells[nMonths:] the aspects
	full    [][]Entry
	tail    []Entry
}

// cell is one tally of a subject, keyed by a month ("YYYY-MM") or a
// lower-cased feature.
type cell struct {
	key string
	Counts
}

// entryChunk is the number of entries in one full chunk of a subject's
// entries: 128 entries of 88 bytes, 11 KiB. A subject past its first
// chunk holds up to one chunk unused, so the chunk is kept small: at
// 512, the subjects of the benchmark's query_storm stream held 0.36 MB
// of unused chunks.
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
// one cut from a fact's date would keep its request's body alive. Only
// a copy this publish made may be tallied.
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
func (s *subjectAgg) addEntry(e Entry) {
	switch {
	case len(s.tail) == entryChunk:
		s.full = append(s.full, s.tail)
		s.tail = make([]Entry, 0, entryChunk)
	case len(s.tail) == cap(s.tail) && 2*cap(s.tail) > entryChunk:
		s.tail = append(make([]Entry, 0, entryChunk), s.tail...) // the first chunk's last growth
	}
	s.tail = append(s.tail, e)
}

// numEntries is the number of entries the subject holds.
func (s *subjectAgg) numEntries() int { return len(s.full)*entryChunk + len(s.tail) }

// View is an immutable snapshot of the materialized aggregates. Readers
// obtain one with Aggregates.View — a single atomic pointer load, the
// same reader discipline as the inverted index's posting snapshots —
// and may then query it without any locking for as long as they like.
type View struct {
	gen      uint64
	subjects map[string]*subjectAgg
	names    []string // sorted subject keys
	totals   Counts
	facts    int
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
// the caller's.
func (v *View) Entries(subject string) []Entry {
	s := v.subjects[strings.ToLower(subject)]
	if s == nil {
		return nil
	}
	out := make([]Entry, 0, s.numEntries())
	for _, c := range s.full {
		out = append(out, c...)
	}
	out = append(out, s.tail...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		if a.Sentence != b.Sentence {
			return a.Sentence < b.Sentence
		}
		if a.Polarity != b.Polarity {
			return a.Polarity < b.Polarity
		}
		if a.Feature != b.Feature {
			return a.Feature < b.Feature
		}
		return a.Snippet < b.Snippet
	})
	return out
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

// Aggregates maintains the materialized sentiment aggregates. Writers
// (ingest batches) serialize on a mutex and publish copy-on-write
// snapshots; readers load the current View with one atomic pointer
// load and never block a writer or another reader.
type Aggregates struct {
	mu   sync.Mutex
	view atomic.Pointer[View]
	// lower interns the lower-cased feature names: a feature already
	// seen is found through a key folded on the stack and costs no
	// string. Guarded by mu.
	lower map[string]string
}

// NewAggregates returns an empty aggregate store at generation 0.
func NewAggregates() *Aggregates {
	a := &Aggregates{lower: map[string]string{}}
	a.view.Store(&View{subjects: map[string]*subjectAgg{}})
	return a
}

// View returns the current immutable snapshot (never nil).
func (a *Aggregates) View() *View { return a.view.Load() }

// Apply folds one ingest batch's facts into the aggregates and
// publishes a new snapshot, returning its generation. The generation
// bumps even for an empty batch: the corpus changed (documents were
// ingested), so every cached response keyed on the old generation must
// re-render. Only subjects touched by the batch are cloned; untouched
// subjects are shared structurally with the previous view, and so is the
// sorted name list unless the batch brought a new subject.
func (a *Aggregates) Apply(facts []Fact) uint64 { return a.publish(facts, 1) }

// ApplyRecovered publishes the facts of docs recovered documents as one
// snapshot and advances the generation by docs: every document was
// acked by a batch of at least one, so the generation a restart lands on
// is never below the one the previous process had published for the
// same documents. Zero documents publish nothing.
func (a *Aggregates) ApplyRecovered(facts []Fact, docs int) uint64 {
	if docs <= 0 {
		return a.View().gen
	}
	return a.publish(facts, uint64(docs))
}

func (a *Aggregates) publish(facts []Fact, advance uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.view.Load()
	next := &View{
		gen:      old.gen + advance,
		subjects: make(map[string]*subjectAgg, len(old.subjects)+4),
		names:    old.names,
		totals:   old.totals,
		facts:    old.facts + len(facts),
	}
	for k, v := range old.subjects {
		next.subjects[k] = v
	}
	added := false
	for _, f := range facts {
		// The subject, and the feature through lower, are found through
		// keys folded on the stack; only a new one allocates its key. A
		// subject copied for this
		// publish carries its generation, so it is cloned once however
		// many facts touch it.
		var buf [64]byte
		s := next.subjects[string(tokenize.Fold(buf[:0], f.Subject))]
		switch {
		case s == nil:
			key := ownLower(f.Subject)
			s = &subjectAgg{key: key, gen: next.gen}
			next.subjects[key] = s
			added = true
		case s.gen != next.gen:
			s = s.clone()
			s.gen = next.gen
			next.subjects[s.key] = s
		}
		pol := "-"
		if f.Positive {
			pol = "+"
		}
		bump := func(c *Counts) {
			if f.Positive {
				c.Positive++
			} else {
				c.Negative++
			}
		}
		bump(&s.total)
		bump(&next.totals)
		if m := monthOf(f.Date); m != "" {
			bump(s.tally(true, m))
		}
		if f.Feature != "" {
			feature, ok := a.lower[string(tokenize.Fold(buf[:0], f.Feature))]
			if !ok {
				feature = ownLower(f.Feature)
				a.lower[feature] = feature
			}
			bump(s.tally(false, feature))
		}
		s.addEntry(Entry{Subject: s.key, Polarity: pol, Doc: f.Doc,
			Sentence: f.Sentence, Snippet: f.Snippet, Feature: f.Feature})
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
