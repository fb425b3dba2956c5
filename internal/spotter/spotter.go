// Package spotter implements the general-purpose term spotter miner: it
// identifies occurrences of arbitrary terms or phrases within documents
// and tags them with the synonym set they belong to.
//
// Subject terms are grouped into synonym sets ("Sony PDA", "CLIE" and
// "Sony CLIE" may all map to one subject) so that analytics over a subject
// count all its name variants together. Matching is case-insensitive and
// token-based, using an Aho-Corasick automaton over token sequences so a
// document is scanned once regardless of how many terms are registered.
package spotter

import (
	"sort"
	"strings"

	"webfountain/internal/match"
	"webfountain/internal/tokenize"
)

// SynonymSet groups the name variants of one subject under a stable ID.
type SynonymSet struct {
	// ID identifies the subject (e.g. "nr70").
	ID string
	// Canonical is the display name of the subject.
	Canonical string
	// Terms are the surface variants to spot, each possibly multi-word.
	Terms []string
}

// Spot is one occurrence of a registered term.
type Spot struct {
	// SetID is the synonym set the matched term belongs to.
	SetID string
	// Term is the matched variant (lower-cased).
	Term string
	// Start and End are token indices of the match within the scanned
	// token slice (half-open).
	Start, End int
	// Sentence is the sentence index for sentence-based scans, -1 for raw
	// token scans.
	Sentence int
}

// output records the synonym set and surface term behind one compiled
// pattern, indexed by the matcher's pattern ID.
type output struct {
	setID string
	term  string
}

// Spotter is an immutable, compiled term matcher. Build one with New and
// reuse it across documents; it is safe for concurrent use. Matching runs
// on a shared Aho-Corasick automaton over interned word symbols
// (internal/match) built once at construction, so a document scan does no
// per-token map lookups or case-folding allocations.
type Spotter struct {
	m    *match.Matcher
	outs []output
	sets map[string]SynonymSet
}

// New compiles the synonym sets into a spotter. Empty terms are ignored;
// duplicate terms across sets match for every set that registered them.
func New(sets []SynonymSet) *Spotter {
	sp := &Spotter{sets: make(map[string]SynonymSet, len(sets))}
	var phrases []string
	for _, set := range sets {
		sp.sets[set.ID] = set
		for _, term := range set.Terms {
			phrase := strings.Join(termWords(term), " ")
			if phrase == "" {
				continue
			}
			phrases = append(phrases, phrase)
			sp.outs = append(sp.outs, output{setID: set.ID, term: phrase})
		}
	}
	sp.m = match.Compile(phrases)
	return sp
}

// termWords tokenizes a registered term the same way documents are
// tokenized, so "T series CLIEs" matches the token stream.
func termWords(term string) []string {
	toks := tokenize.New().Tokenize(strings.ToLower(term))
	words := make([]string, 0, len(toks))
	for _, t := range toks {
		words = append(words, t.Text)
	}
	return words
}

// Set returns the synonym set registered under id.
func (sp *Spotter) Set(id string) (SynonymSet, bool) {
	s, ok := sp.sets[id]
	return s, ok
}

// Sets returns the number of registered synonym sets.
func (sp *Spotter) Sets() int { return len(sp.sets) }

// SpotTokens scans a token slice and returns all matches, ordered by start
// position (longest first at equal starts). Sentence is -1 on every spot.
func (sp *Spotter) SpotTokens(tokens []tokenize.Token) []Spot {
	spots := sp.AppendSpots(nil, tokens, -1)
	sortSpots(spots)
	return spots
}

// SpotSentences scans each sentence and annotates spots with the sentence
// index.
func (sp *Spotter) SpotSentences(sents []tokenize.Sentence) []Spot {
	var all []Spot
	for _, s := range sents {
		all = sp.AppendSpots(all, s.Tokens, s.Index)
	}
	sortSpots(all)
	return all
}

// AppendSpots scans tokens through the automaton and appends matches to
// dst in automaton emission order (by end position, longest first at equal
// ends). Callers wanting the documented SpotTokens ordering must sort; the
// scan itself allocates nothing beyond dst growth.
func (sp *Spotter) AppendSpots(dst []Spot, tokens []tokenize.Token, sentence int) []Spot {
	sp.m.Scan(len(tokens),
		func(i int) uint32 { return sp.m.Sym(tokens[i].Text) },
		func(mt match.Match) {
			o := &sp.outs[mt.Pattern]
			dst = append(dst, Spot{
				SetID:    o.setID,
				Term:     o.term,
				Start:    mt.Start,
				End:      mt.End,
				Sentence: sentence,
			})
		})
	return dst
}

// Sort orders spots by (Sentence, Start, longest-first End, SetID, Term)
// — the documented SpotTokens/SpotSentences ordering — so callers of
// AppendSpots can restore it over a reused buffer.
func Sort(spots []Spot) { sortSpots(spots) }

func sortSpots(spots []Spot) {
	sort.Slice(spots, func(i, j int) bool {
		if spots[i].Sentence != spots[j].Sentence {
			return spots[i].Sentence < spots[j].Sentence
		}
		if spots[i].Start != spots[j].Start {
			return spots[i].Start < spots[j].Start
		}
		if spots[i].End != spots[j].End {
			return spots[i].End > spots[j].End // longest first
		}
		if spots[i].SetID != spots[j].SetID {
			return spots[i].SetID < spots[j].SetID
		}
		return spots[i].Term < spots[j].Term
	})
}

// CountBySet tallies spots per synonym set ID.
func CountBySet(spots []Spot) map[string]int {
	counts := make(map[string]int)
	for _, s := range spots {
		counts[s.SetID]++
	}
	return counts
}
