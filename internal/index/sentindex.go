package index

import (
	"sort"
	"strings"
	"sync"
)

// SentimentEntry is one (subject, sentiment) fact extracted offline and
// indexed for query-time retrieval: the second operational mode applies
// the sentiment miner to the whole corpus and serves real-time queries
// from this index.
type SentimentEntry struct {
	// DocID is the entity the sentiment was found in.
	DocID string
	// Sentence is the sentence index within the document.
	Sentence int
	// Subject is the normalized (lower-cased) subject the sentiment is
	// about.
	Subject string
	// Polarity is +1 or -1.
	Polarity int
	// Snippet is the sentiment-bearing sentence text, for display.
	Snippet string
	// Feature is the target phrase the sentiment was directed at, the
	// aspect dimension of the serving tier's aggregates ("" when the
	// analyzer resolved no target).
	Feature string
}

// SentimentCounts aggregates a subject's sentiment.
type SentimentCounts struct {
	Positive, Negative int
}

// Total returns the number of polar mentions.
func (c SentimentCounts) Total() int { return c.Positive + c.Negative }

// PositiveShare returns the fraction of positive mentions (0 when empty).
func (c SentimentCounts) PositiveShare() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Positive) / float64(c.Total())
}

// SentimentIndex serves subject-sentiment queries, safe for concurrent
// use.
type SentimentIndex struct {
	mu        sync.RWMutex
	bySubject map[string][]SentimentEntry
}

// NewSentimentIndex returns an empty sentiment index.
func NewSentimentIndex() *SentimentIndex {
	return &SentimentIndex{bySubject: make(map[string][]SentimentEntry)}
}

// Add indexes one entry; the subject key is case-insensitive.
func (si *SentimentIndex) Add(e SentimentEntry) {
	e.Subject = strings.ToLower(e.Subject)
	si.mu.Lock()
	defer si.mu.Unlock()
	si.bySubject[e.Subject] = append(si.bySubject[e.Subject], e)
}

// Query returns all entries for a subject, ordered by (DocID, Sentence,
// Polarity, Feature, Snippet). The sort is stable and the key total, so
// entries that tie on document and sentence — the same subject twice in
// one sentence — come back in the same order regardless of whether they
// were mined serially or in parallel.
func (si *SentimentIndex) Query(subject string) []SentimentEntry {
	si.mu.RLock()
	entries := si.bySubject[strings.ToLower(subject)]
	out := make([]SentimentEntry, len(entries))
	copy(out, entries)
	si.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		if out[i].Sentence != out[j].Sentence {
			return out[i].Sentence < out[j].Sentence
		}
		if out[i].Polarity != out[j].Polarity {
			return out[i].Polarity > out[j].Polarity
		}
		if out[i].Feature != out[j].Feature {
			return out[i].Feature < out[j].Feature
		}
		return out[i].Snippet < out[j].Snippet
	})
	return out
}

// Counts aggregates the polar mentions of a subject.
func (si *SentimentIndex) Counts(subject string) SentimentCounts {
	si.mu.RLock()
	defer si.mu.RUnlock()
	var c SentimentCounts
	for _, e := range si.bySubject[strings.ToLower(subject)] {
		if e.Polarity > 0 {
			c.Positive++
		} else if e.Polarity < 0 {
			c.Negative++
		}
	}
	return c
}

// Subjects returns every indexed subject, sorted.
func (si *SentimentIndex) Subjects() []string {
	si.mu.RLock()
	defer si.mu.RUnlock()
	out := make([]string, 0, len(si.bySubject))
	for s := range si.bySubject {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// All returns every indexed entry in a deterministic total order
// (subject, then the Query key), so two indexes holding the same entries
// dump identically regardless of insertion order — what the recovery
// tests compare across a restart.
func (si *SentimentIndex) All() []SentimentEntry {
	si.mu.RLock()
	out := make([]SentimentEntry, 0, 64)
	for _, es := range si.bySubject {
		out = append(out, es...)
	}
	si.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		if out[i].Sentence != out[j].Sentence {
			return out[i].Sentence < out[j].Sentence
		}
		if out[i].Polarity != out[j].Polarity {
			return out[i].Polarity > out[j].Polarity
		}
		if out[i].Feature != out[j].Feature {
			return out[i].Feature < out[j].Feature
		}
		return out[i].Snippet < out[j].Snippet
	})
	return out
}

// Len returns the total number of indexed entries.
func (si *SentimentIndex) Len() int {
	si.mu.RLock()
	defer si.mu.RUnlock()
	n := 0
	for _, es := range si.bySubject {
		n += len(es)
	}
	return n
}
