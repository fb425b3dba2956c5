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
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"webfountain/internal/corpus"
	"webfountain/internal/lexicon"
	"webfountain/internal/pos"
	"webfountain/internal/serve"
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

// TestAllocCeilingLexiconBuild gates the lexicon build a miner with
// extra entries pays, and the shared lexicon pays once per process: the
// embedded entries, the entry map and the phrase automaton (compiled by
// the first LookupPhrase, which itself allocates nothing). Each term's
// readings are carved from one array and the automaton's tables are
// sized up front, so the build is a few dozen allocations whatever the
// entry count.
func TestAllocCeilingLexiconBuild(t *testing.T) {
	toks := []pos.TaggedToken{{Token: tokenize.Token{Text: "Excellent"}, Tag: pos.JJ}}
	avg := testing.AllocsPerRun(20, func() {
		if _, _, ok := lexicon.Default().LookupPhrase(toks, 0); !ok {
			t.Fatal("the built lexicon misses an embedded entry")
		}
	})
	const ceiling = 40
	if avg > ceiling {
		t.Fatalf("lexicon build allocates %.1f/run, ceiling %d", avg, ceiling)
	}
	t.Logf("lexicon build: %.1f allocs/run (ceiling %d)", avg, ceiling)
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

// TestAllocCeilingGatewayIngest gates the whole server-side ingest of one
// warm 32-document bulk request, as BenchmarkGatewayIngestBulk runs it:
// the gateway reads the body into a pooled buffer and cuts the documents
// from one string, the tier mines each into its worker's arena, the
// durable store encodes the commit into a pooled buffer and keeps where
// the records landed under keys cut from one string, and the aggregates
// copy the strings their entries keep into one text and append packed
// entries in chunks. What is left per document is its generated
// ID, its annotations (the WAL record is encoded from them) and what the
// analyzer builds per sentiment hit, so the ceiling is a constant per
// request, which covers the 32 IDs, plus a small term per fact — at its
// parent the same request made about 33 allocations per document.
func TestAllocCeilingGatewayIngest(t *testing.T) {
	const batch = 32
	p, err := OpenPlatform(PlatformConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier, _, err := RecoverServingTier(p, m, ServingTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServingGateway(tier, ServingGatewayConfig{TenantRate: 1e9, TenantBurst: 1 << 30})
	var req struct {
		Docs []serve.Doc `json:"docs"`
	}
	for i, text := range bulkTexts(batch) {
		req.Docs = append(req.Docs, serve.Doc{Source: "review", Title: fmt.Sprintf("bulk %d", i), Date: "2004-03-02", Text: text})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", w.Code, w.Body)
		}
		return w
	}
	var resp struct{ Facts int }
	if err := json.Unmarshal(post().Body.Bytes(), &resp); err != nil { // warm: the pools, the arenas and the subjects
		t.Fatal(err)
	}
	facts := resp.Facts
	avg := testing.AllocsPerRun(10, func() { post() })
	const perRequest = 160
	ceiling := perRequest + facts/2
	if avg > float64(ceiling) {
		t.Errorf("a %d-document bulk request allocates %.1f, ceiling %d (%d + %d facts / 2)", batch, avg, ceiling, perRequest, facts)
	}
	t.Logf("bulk ingest: %.1f allocs/request for %d documents, %d facts (ceiling %d)", avg, batch, facts, ceiling)
}
