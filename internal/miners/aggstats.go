package miners

import (
	"sort"

	"webfountain/internal/store"
)

// AggregateStats is the corpus-level statistics miner: document counts,
// token volume, vocabulary size, source breakdown and the most frequent
// terms.
type AggregateStats struct {
	// TopK is how many top terms to retain (default 20).
	TopK int

	// Documents and Tokens are corpus totals.
	Documents int
	Tokens    int
	// Vocabulary is the number of distinct (lower-cased) word types.
	Vocabulary int
	// AvgDocTokens is the mean document length in tokens.
	AvgDocTokens float64
	// BySource counts documents per acquisition channel.
	BySource map[string]int
	// TopTerms are the most frequent terms, ties broken alphabetically.
	TopTerms []TermCount
}

// TermCount is a term with its corpus frequency.
type TermCount struct {
	Term  string
	Count int
}

// Name identifies the miner.
func (a *AggregateStats) Name() string { return "aggstats" }

// Run computes the aggregates over the whole store.
func (a *AggregateStats) Run(st *store.Store) error {
	if a.TopK == 0 {
		a.TopK = 20
	}
	a.Documents, a.Tokens, a.Vocabulary = 0, 0, 0
	a.BySource = map[string]int{}
	freq := map[string]int{}
	err := forEach(st, func(e *store.Entity) error {
		a.Documents++
		a.BySource[e.Source]++
		for _, w := range words(e.Text) {
			a.Tokens++
			freq[w]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	a.Vocabulary = len(freq)
	if a.Documents > 0 {
		a.AvgDocTokens = float64(a.Tokens) / float64(a.Documents)
	}
	a.TopTerms = a.TopTerms[:0]
	for t, c := range freq {
		a.TopTerms = append(a.TopTerms, TermCount{Term: t, Count: c})
	}
	sort.Slice(a.TopTerms, func(i, j int) bool {
		if a.TopTerms[i].Count != a.TopTerms[j].Count {
			return a.TopTerms[i].Count > a.TopTerms[j].Count
		}
		return a.TopTerms[i].Term < a.TopTerms[j].Term
	})
	if len(a.TopTerms) > a.TopK {
		a.TopTerms = a.TopTerms[:a.TopK]
	}
	return nil
}
