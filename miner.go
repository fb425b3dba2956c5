package webfountain

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"webfountain/internal/chunk"
	"webfountain/internal/disambig"
	"webfountain/internal/index"
	"webfountain/internal/lexicon"
	"webfountain/internal/metrics"
	"webfountain/internal/ne"
	"webfountain/internal/patterns"
	"webfountain/internal/pos"
	"webfountain/internal/sentiment"
	"webfountain/internal/spotter"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

// Per-stage latency histograms of the mining pipeline, resolved once.
// Each takes one sample per document: the sum of that stage's time over
// the document's sentences, measured with one clock read per stage
// boundary (metrics.Laps). Mode 2 (named entities) exercises every stage
// separately; mode 1 (predefined subjects) folds POS tagging and
// chunking into the sentiment stage, because its analyzer tags and
// chunks internally per subject context.
var (
	stageTokenize  = metrics.Default().Stage(metrics.StageTokenize)
	stagePOS       = metrics.Default().Stage(metrics.StagePOS)
	stageChunk     = metrics.Default().Stage(metrics.StageChunk)
	stageSpot      = metrics.Default().Stage(metrics.StageSpot)
	stageDisambig  = metrics.Default().Stage(metrics.StageDisambig)
	stageSentiment = metrics.Default().Stage(metrics.StageSentiment)
	minedDocs      = metrics.Default().Counter("miner.docs")
	minedFacts     = metrics.Default().Counter("miner.facts")
	docPipelineNs  = metrics.Default().Histogram("pipeline.doc.ns")
)

// Polarity is a sentiment orientation as reported by the miner.
type Polarity = lexicon.Polarity

// Polarity values.
const (
	Neutral  = lexicon.Neutral
	Positive = lexicon.Positive
	Negative = lexicon.Negative
)

// Subject describes one subject of interest for the predefined-subjects
// mode: a synonym set plus optional disambiguation resources.
type Subject struct {
	// ID identifies the subject; defaults to a lower-cased Canonical.
	ID string
	// Canonical is the display name.
	Canonical string
	// Terms are the surface variants to spot. Defaults to {Canonical}.
	Terms []string
	// OnTopic and OffTopic feed the disambiguator; when both are empty
	// every spot of the subject is accepted.
	OnTopic  []string
	OffTopic []string
}

// AnalyzerOptions re-exports the ablation switches of the core analyzer.
type AnalyzerOptions = sentiment.Options

// MinerConfig configures a SentimentMiner.
type MinerConfig struct {
	// Subjects enables the predefined-subjects mode. Leave empty for the
	// query-time mode driven by the named entity spotter.
	Subjects []Subject
	// ExtraLexicon optionally supplies additional sentiment lexicon
	// entries in the paper's "<term> <POS> <polarity>" format.
	ExtraLexicon io.Reader
	// ExtraPatterns optionally supplies additional predicate patterns in
	// the paper's "<predicate> <category> <target>" format.
	ExtraPatterns io.Reader
	// ContextWindow is the number of sentences on each side of a spot
	// included in its sentiment context (default 0: the sentence alone).
	ContextWindow int
	// Options ablate parts of the algorithm; the zero value is the full
	// algorithm.
	Options AnalyzerOptions
}

// SubjectSentiment is one extracted (subject, sentiment) fact.
type SubjectSentiment struct {
	// Subject is the subject the sentiment is about (synonym-set ID in
	// the predefined mode, the entity surface form otherwise).
	Subject string
	// Polarity is the extracted sentiment, never Neutral.
	Polarity Polarity
	// DocID locates the document ("" for ad-hoc text analysis).
	DocID string
	// Sentence is the sentence index within the document.
	Sentence int
	// Snippet is the sentiment-bearing sentence, quoted verbatim from
	// the source text.
	Snippet string
	// Start and End are Snippet's half-open byte span in the source
	// text (both zero on facts read back from the sentiment index).
	Start, End int
	// Pattern names the sentiment pattern that fired, for tracing.
	Pattern string
	// Feature is the target phrase the sentiment was directed at
	// (determiners stripped) — the feature-level dimension of the
	// paper's aggregates ("battery life" vs the camera itself). Empty
	// when the analyzer did not resolve a target phrase.
	Feature string
}

// SentimentMiner implements the paper's miner in both operational modes.
// It is safe for concurrent use once constructed.
type SentimentMiner struct {
	cfg      MinerConfig
	tagger   *pos.Tagger
	tk       *tokenize.Tokenizer
	analyzer *sentiment.Analyzer
	spot     *spotter.Spotter // nil without predefined subjects
	disamb   map[string]*disambig.Disambiguator
	nespot   *ne.Spotter
	sidx     *index.SentimentIndex
	arenas   sync.Pool // of *pipelineArena
}

// pipelineArena owns one in-flight document's scratch buffers across
// every pipeline stage: tokenize → split → spot → disambiguate → tag →
// chunk → analyze. Each miner worker checks one out per document and all
// stage outputs are carved from it, so in steady state a document's trip
// through the pipeline allocates only the facts it extracts.
//
// The reuse contract: a buffer's contents are valid until the arena
// starts the next document. Stages therefore always finish consuming a
// buffer before the stage that owns it runs again.
type pipelineArena struct {
	tokens []tokenize.Token    // whole-document token stream, when the caller brought none
	sents  []tokenize.Sentence // subslice views over tokens
	spots  []spotter.Spot      // raw spotter output, one sentence at a time
	keep   []spotter.Spot      // maximal() survivors
	seen   map[string]bool     // per-sentence subject dedup
	one    [1]spotter.Spot     // disambiguator's single-spot argument
	ents   []ne.Entity         // mode 2: named entities of the document, sentence by sentence
	hits   []sentiment.Assignment
	sa     sentiment.Scratch // mode 1: per-spot tag→chunk→analyze buffers

	// Mode 2 drives the stages itself, so it owns the stage buffers
	// directly instead of going through the sentiment scratch.
	entSents []entitySentence  // the sentences with an entity, in order
	tagged   []pos.TaggedToken // the entity sentences' tags, sentence by sentence
	ck       chunk.Chunker
	cs       chunk.Scratch
	assigns  []sentiment.Assignment

	facts []SubjectSentiment // the document's facts, copied out at the end
}

// entitySentence is one sentence of a mode 2 document that holds a named
// entity: its index in sents and where its entities and tags start in
// ents and tagged (each runs to the next entity sentence's start).
type entitySentence struct {
	sent, ents, tags int
}

func (m *SentimentMiner) arena() *pipelineArena {
	return m.arenas.Get().(*pipelineArena)
}

// NewSentimentMiner builds a miner. It fails only when ExtraLexicon or
// ExtraPatterns contain malformed entries; a zero config always succeeds.
func NewSentimentMiner(cfg MinerConfig) (*SentimentMiner, error) {
	// Without extra entries the embedded resources are immutable, so every
	// miner shares the process-wide compiled copies instead of rebuilding
	// its own maps and automata.
	lex := lexicon.Shared()
	if cfg.ExtraLexicon != nil {
		lex = lexicon.Default()
		if err := lex.Load(cfg.ExtraLexicon); err != nil {
			return nil, fmt.Errorf("webfountain: extra lexicon: %w", err)
		}
	}
	db := patterns.Shared()
	if cfg.ExtraPatterns != nil {
		db = patterns.Default()
		if err := db.Load(cfg.ExtraPatterns); err != nil {
			return nil, fmt.Errorf("webfountain: extra patterns: %w", err)
		}
	}
	m := &SentimentMiner{
		cfg:      cfg,
		tagger:   pos.NewTagger(),
		tk:       tokenize.New(),
		analyzer: sentiment.NewWithOptions(lex, db, cfg.Options),
		nespot:   ne.New(),
		sidx:     index.NewSentimentIndex(),
		disamb:   map[string]*disambig.Disambiguator{},
	}
	m.arenas.New = func() any { return &pipelineArena{seen: map[string]bool{}} }
	if len(cfg.Subjects) > 0 {
		sets := make([]spotter.SynonymSet, 0, len(cfg.Subjects))
		for _, s := range cfg.Subjects {
			id := s.ID
			if id == "" {
				id = strings.ToLower(s.Canonical)
			}
			terms := s.Terms
			if len(terms) == 0 {
				terms = []string{s.Canonical}
			}
			sets = append(sets, spotter.SynonymSet{ID: id, Canonical: s.Canonical, Terms: terms})
			if len(s.OnTopic) > 0 || len(s.OffTopic) > 0 {
				m.disamb[id] = disambig.New(disambig.Config{
					OnTopic:  s.OnTopic,
					OffTopic: s.OffTopic,
				})
			}
		}
		m.spot = spotter.New(sets)
	}
	return m, nil
}

// AnalyzeText runs the miner over a single text outside any platform. In
// the predefined-subjects mode it reports sentiment per subject spot; in
// the query-time mode it reports sentiment for named entities and for
// whatever phrase each sentiment associates with.
func (m *SentimentMiner) AnalyzeText(text string) []SubjectSentiment {
	return m.analyzeEntity("", text, nil)
}

// analyzeEntity extracts the (subject, sentiment) facts of one document
// in one new slice: appendFacts to nil.
func (m *SentimentMiner) analyzeEntity(docID, text string, toks []tokenize.Token) []SubjectSentiment {
	return m.appendFacts(nil, docID, text, toks)
}

// appendFacts appends the (subject, sentiment) facts of one document to
// dst, stamping the trip through the pipeline stages into the registry.
// toks is the document's token stream when the caller already has it
// (the ingest step, which tokenized the text for the inverted index);
// nil makes the analyzer tokenize into its arena. Either way the
// document is tokenized exactly once, and sentences are subslice views
// over that one token slice, shared by every downstream stage.
//
// The facts collect in the arena and leave it in one append, so a nil
// dst costs one allocation, and a caller that reuses dst (the
// ingest step's worker) allocates nothing for them.
func (m *SentimentMiner) appendFacts(dst []SubjectSentiment, docID, text string, toks []tokenize.Token) []SubjectSentiment {
	a := m.arena()
	defer m.arenas.Put(a)
	laps := metrics.StartLaps()
	if toks == nil {
		a.tokens = m.tk.AppendTokens(a.tokens[:0], text)
		toks = a.tokens
	}
	a.sents = m.tk.AppendSentences(a.sents[:0], toks)
	var tok time.Duration
	laps.Lap(&tok)
	stageTokenize.ObserveDuration(tok)
	if m.spot != nil {
		a.facts = m.mineWithSubjects(a.facts[:0], a, &laps, toks, docID, text)
	} else {
		a.facts = m.mineEntities(a.facts[:0], a, &laps, docID, text)
	}
	docPipelineNs.ObserveDuration(laps.Elapsed())
	minedDocs.Inc()
	minedFacts.Add(int64(len(a.facts)))
	if len(a.facts) > 0 {
		dst = append(dst, a.facts...)
		clear(a.facts) // drop the arena's references to this document
	}
	return dst
}

// mineWithSubjects is mode 1: spot subjects, disambiguate, build a
// sentiment context per spot and analyze it, appending facts to out.
func (m *SentimentMiner) mineWithSubjects(out []SubjectSentiment, a *pipelineArena, laps *metrics.Laps, toks []tokenize.Token, docID, text string) []SubjectSentiment {
	var spot, disamb, analyze time.Duration
	// Sentences partition the document token stream, so a running offset
	// turns sentence-local token indices into document-level ones for the
	// disambiguator's local window.
	offset := 0
	for _, s := range a.sents {
		sentOffset := offset
		offset += len(s.Tokens)
		a.spots = m.spot.AppendSpots(a.spots[:0], s.Tokens, -1)
		spotter.Sort(a.spots)
		a.keep = maximalInto(a.keep[:0], a.spots)
		if len(a.keep) == 0 {
			continue
		}
		laps.Lap(&spot)
		clear(a.seen)
		for _, sp := range a.keep {
			if a.seen[sp.SetID] {
				continue
			}
			a.seen[sp.SetID] = true
			if d, ok := m.disamb[sp.SetID]; ok {
				a.one[0] = spotter.Spot{
					SetID: sp.SetID, Term: sp.Term,
					Start: sentOffset + sp.Start, End: sentOffset + sp.End,
				}
				kept := d.Filter(toks, a.one[:])
				laps.Lap(&disamb)
				if len(kept) == 0 {
					continue
				}
			}
			ctx := sentiment.BuildContext(a.sents, s.Index, m.cfg.ContextWindow, sp.Start, sp.End)
			if hits, ok := m.analyzer.SubjectSentimentInto(&a.sa, m.tagger, ctx); ok {
				for _, h := range hits {
					out = append(out, SubjectSentiment{
						Subject:  sp.SetID,
						Polarity: h.Polarity,
						DocID:    docID,
						Sentence: s.Index,
						Snippet:  text[s.Start:s.End], // verbatim span: no render
						Start:    s.Start,
						End:      s.End,
						Pattern:  h.Pattern,
						Feature:  h.Target,
					})
				}
			}
			laps.Lap(&analyze)
		}
	}
	laps.Lap(&spot)
	stageSpot.ObserveDuration(spot)
	if len(m.disamb) > 0 {
		stageDisambig.ObserveDuration(disamb)
	}
	stageSentiment.ObserveDuration(analyze)
	return out
}

// mineEntities is mode 2's analysis half: named entities become subjects;
// every sentiment-bearing sentence appends (entity, polarity) facts to
// out.
//
// The clock is read only where the stage changes. Every sentence is
// spotted in one stretch and every entity sentence tagged in the next,
// one lap each; then each entity sentence is chunked and analyzed in
// turn, a lap each, because a sentence's clauses live in the chunker's
// scratch only until its next call. That is two clock reads per
// document and two per entity sentence.
func (m *SentimentMiner) mineEntities(out []SubjectSentiment, a *pipelineArena, laps *metrics.Laps, docID, text string) []SubjectSentiment {
	var spot, tag, chunk, analyze time.Duration
	a.ents, a.entSents = a.ents[:0], a.entSents[:0]
	for i, s := range a.sents {
		from := len(a.ents)
		if a.ents = m.nespot.AppendEntities(a.ents, s.Tokens, -1); len(a.ents) > from {
			a.entSents = append(a.entSents, entitySentence{sent: i, ents: from})
		}
	}
	laps.Lap(&spot)
	a.tagged = a.tagged[:0]
	for k := range a.entSents {
		es := &a.entSents[k]
		es.tags = len(a.tagged)
		a.tagged = m.tagger.AppendTags(a.tagged, a.sents[es.sent].Tokens)
	}
	laps.Lap(&tag)
	for k, es := range a.entSents {
		entsEnd, tagsEnd := len(a.ents), len(a.tagged)
		if k+1 < len(a.entSents) {
			entsEnd, tagsEnd = a.entSents[k+1].ents, a.entSents[k+1].tags
		}
		s := &a.sents[es.sent]
		clauses := a.ck.ClausesInto(&a.cs, a.tagged[es.tags:tagsEnd])
		laps.Lap(&chunk)
		a.assigns = m.analyzer.AppendAssignments(a.assigns[:0], clauses)
		for _, e := range a.ents[es.ents:entsEnd] {
			a.hits = sentiment.AppendForSpan(a.hits[:0], a.assigns, e.Start, e.End)
			for _, h := range a.hits {
				out = append(out, SubjectSentiment{
					Subject:  e.Text,
					Polarity: h.Polarity,
					DocID:    docID,
					Sentence: s.Index,
					Snippet:  text[s.Start:s.End], // verbatim span: no render
					Start:    s.Start,
					End:      s.End,
					Pattern:  h.Pattern,
					Feature:  h.Target,
				})
			}
		}
		laps.Lap(&analyze)
	}
	stageSpot.ObserveDuration(spot)
	stagePOS.ObserveDuration(tag)
	stageChunk.ObserveDuration(chunk)
	stageSentiment.ObserveDuration(analyze)
	return out
}

// maximalInto drops spots contained in longer spots (longest-match rule),
// appending the survivors to dst. dst must not alias spots.
func maximalInto(dst, spots []spotter.Spot) []spotter.Spot {
	for i, s := range spots {
		contained := false
		for j, t := range spots {
			if i != j && t.Start <= s.Start && s.End <= t.End && t.End-t.Start > s.End-s.Start {
				contained = true
				break
			}
		}
		if !contained {
			dst = append(dst, s)
		}
	}
	return dst
}

// MinerName is the annotation name the sentiment miner writes.
const MinerName = "sentiment"

// Run mines every stored document of the platform — analyzed with this
// miner's configuration, so each fact keeps its Pattern — and builds the
// sentiment index for query-time lookups. A document's facts are written
// back as its annotations only if it carries no sentiment annotation
// yet, so running again, or over documents the serving tier mined, adds
// nothing to the store. It returns the facts sorted by (DocID, Sentence,
// Subject); a refused write-back fails the run, naming the document, and
// returns no facts.
func (m *SentimentMiner) Run(p *Platform) ([]SubjectSentiment, error) {
	var facts []SubjectSentiment
	for _, d := range mineStored(p, MinerName, func(e *store.Entity, annotated bool) ([]SubjectSentiment, []store.Annotation) {
		mined := m.analyzeEntity(e.ID, e.Text, nil)
		if annotated {
			return mined, nil
		}
		return mined, annotationsOf(mined)
	}) {
		if d.err != nil {
			return nil, fmt.Errorf("webfountain: mining %s: annotation write-back: %w", d.id, d.err)
		}
		facts = append(facts, d.res...)
	}

	// The sort key is total — the same subject twice in one sentence
	// still ties on (DocID, Sentence, Subject) — and the sort stable, so
	// the report order is a function of the facts alone.
	sort.SliceStable(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.DocID != b.DocID {
			return a.DocID < b.DocID
		}
		if a.Sentence != b.Sentence {
			return a.Sentence < b.Sentence
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Polarity != b.Polarity {
			return a.Polarity > b.Polarity
		}
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		if a.Feature != b.Feature {
			return a.Feature < b.Feature
		}
		return a.Snippet < b.Snippet
	})
	m.indexFacts(facts)
	return facts, nil
}

// annotationsOf converts mined facts to store annotations that carry the
// whole fact — subject, polarity, sentence, feature and the snippet's
// byte span — so the offline trend miner reads them and the serving tier
// is rebuilt from them (storedFacts) without re-mining.
func annotationsOf(facts []SubjectSentiment) []store.Annotation {
	anns := make([]store.Annotation, 0, len(facts))
	for _, f := range facts {
		anns = append(anns, store.Annotation{
			Miner:    MinerName,
			Type:     "polarity",
			Key:      f.Subject,
			Value:    f.Polarity.String(),
			Feature:  f.Feature,
			Sentence: f.Sentence,
			Start:    f.Start,
			End:      f.End,
		})
	}
	return anns
}

// storedFacts is annotationsOf's inverse: the facts of a stored document
// rebuilt from the sentiment annotations it carries, with no tokenizer
// and no analyzer (Pattern, which is not stored, stays empty). ok is
// false when the entity carries none, or when one of them is not a whole
// fact — an unknown polarity, or a span that is empty or outside the text,
// as on annotations written before spans were recorded; such a document
// is mined again instead.
func storedFacts(e *store.Entity) (facts []SubjectSentiment, ok bool) {
	for _, a := range e.Annotations {
		if a.Miner != MinerName {
			continue
		}
		var pol Polarity
		switch a.Value {
		case "+":
			pol = Positive
		case "-":
			pol = Negative
		}
		if pol == Neutral || a.Start < 0 || a.Start >= a.End || a.End > len(e.Text) {
			return nil, false
		}
		if facts == nil {
			facts = make([]SubjectSentiment, 0, len(e.Annotations))
		}
		facts = append(facts, SubjectSentiment{
			Subject:  a.Key,
			Polarity: pol,
			DocID:    e.ID,
			Sentence: a.Sentence,
			Snippet:  e.Text[a.Start:a.End],
			Start:    a.Start,
			End:      a.End,
			Feature:  a.Feature,
		})
	}
	return facts, len(facts) > 0
}

// indexFacts folds mined facts into the query-time sentiment index.
func (m *SentimentMiner) indexFacts(facts []SubjectSentiment) {
	for _, f := range facts {
		m.sidx.Add(index.SentimentEntry{
			DocID:    f.DocID,
			Sentence: f.Sentence,
			Subject:  f.Subject,
			Polarity: int(f.Polarity),
			Snippet:  f.Snippet,
			Feature:  f.Feature,
		})
	}
}

// MineDocument runs the pipeline over one document and folds the
// extracted facts into the query-time sentiment index — Run for a single
// document. Safe for concurrent use.
func (m *SentimentMiner) MineDocument(docID, text string) []SubjectSentiment {
	facts := m.analyzeEntity(docID, text, nil)
	m.indexFacts(facts)
	return facts
}

// Query serves a query-time sentiment lookup from the index built by Run.
func (m *SentimentMiner) Query(subject string) []SubjectSentiment {
	entries := m.sidx.Query(subject)
	out := make([]SubjectSentiment, 0, len(entries))
	for _, e := range entries {
		out = append(out, SubjectSentiment{
			Subject:  e.Subject,
			Polarity: Polarity(e.Polarity),
			DocID:    e.DocID,
			Sentence: e.Sentence,
			Snippet:  e.Snippet,
			Feature:  e.Feature,
		})
	}
	return out
}

// Counts aggregates a subject's indexed sentiment.
func (m *SentimentMiner) Counts(subject string) (positive, negative int) {
	c := m.sidx.Counts(subject)
	return c.Positive, c.Negative
}

// Subjects returns every subject with indexed sentiment, sorted.
func (m *SentimentMiner) Subjects() []string { return m.sidx.Subjects() }
