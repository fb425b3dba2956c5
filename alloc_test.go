//go:build !race

package webfountain

// Allocation-ceiling regression tests for the mining hot path. The PR
// that introduced the shared DFA matcher, the pipeline arenas and the
// compressed postings drove the steady-state pipeline to (near) zero
// allocations per document; these gates keep it there. Each test warms
// the reusable buffers once, then measures with testing.AllocsPerRun
// and fails if the count climbs above a deliberate ceiling.
//
// The file is excluded under the race detector (build tag above): race
// instrumentation adds its own allocations, so the counts are only
// meaningful in a plain build. CI runs these in a separate non-race
// step next to the race suite.

import (
	"testing"

	"webfountain/internal/corpus"
	"webfountain/internal/pos"
	"webfountain/internal/spotter"
	"webfountain/internal/tokenize"
)

// TestAllocCeilingTokenize gates the tokenizer's append path: with a
// reused destination buffer, steady-state tokenization of a review-sized
// text must not allocate at all.
func TestAllocCeilingTokenize(t *testing.T) {
	tk := tokenize.New()
	text := benchText()
	var buf []tokenize.Token
	buf = tk.AppendTokens(buf[:0], text) // warm: grow the buffer once
	avg := testing.AllocsPerRun(100, func() {
		buf = tk.AppendTokens(buf[:0], text)
	})
	if avg > 0 {
		t.Fatalf("AppendTokens allocates %.1f/run, want 0", avg)
	}
}

// TestAllocCeilingSpot gates DFA spotting: scanning a token stream
// against the full camera subject set must not allocate once the spot
// buffer has grown.
func TestAllocCeilingSpot(t *testing.T) {
	subjects := append(append([]string{}, corpus.CameraProducts...), corpus.CameraFeatures...)
	sp := spotter.New(corpus.SynonymSets(subjects))
	tk := tokenize.New()
	toks := tk.Tokenize(benchText())
	var spots []spotter.Spot
	spots = sp.AppendSpots(spots[:0], toks, 0) // warm
	avg := testing.AllocsPerRun(100, func() {
		spots = sp.AppendSpots(spots[:0], toks, 0)
	})
	if avg > 0 {
		t.Fatalf("AppendSpots allocates %.1f/run, want 0", avg)
	}
}

// TestAllocCeilingMine gates the full per-document mining path through
// the public API. AnalyzeText legitimately allocates its result slice
// and the windowed-fallback scratch on rare sentences, so the ceiling is
// a small constant rather than zero — before the arena work this path
// cost several hundred allocations per call.
func TestAllocCeilingMine(t *testing.T) {
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	text := benchText()
	m.AnalyzeText(text) // warm the arena pool
	avg := testing.AllocsPerRun(50, func() {
		m.AnalyzeText(text)
	})
	const ceiling = 64
	if avg > ceiling {
		t.Fatalf("AnalyzeText allocates %.1f/run, ceiling %d", avg, ceiling)
	}
	t.Logf("AnalyzeText: %.1f allocs/run (ceiling %d)", avg, ceiling)
}

// TestAllocCeilingTag gates POS tagging: with a reused destination
// buffer, tagging every sentence of twenty ingest_bulk-shaped documents
// must not allocate. The linking-verb test compares lemmas in parts, so
// no "-ies"/"-ied" or "-e"-restoring lemma is built.
func TestAllocCeilingTag(t *testing.T) {
	tk := tokenize.New()
	tg := pos.NewTagger()
	var sents []tokenize.Sentence
	for _, text := range bulkTexts(20) {
		sents = append(sents, tk.Sentences(text)...)
	}
	var buf []pos.TaggedToken
	tagAll := func() {
		for _, s := range sents {
			buf = tg.AppendTags(buf[:0], s.Tokens)
		}
	}
	tagAll() // warm: grow the buffer once
	if avg := testing.AllocsPerRun(20, tagAll); avg > 0 {
		t.Fatalf("AppendTags allocates %.1f per %d sentences, want 0", avg, len(sents))
	}
}
