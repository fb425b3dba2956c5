package main

import (
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"webfountain"
	"webfountain/internal/chunk"
	"webfountain/internal/index"
	"webfountain/internal/lexicon"
	"webfountain/internal/ne"
	"webfountain/internal/patterns"
	"webfountain/internal/pos"
	"webfountain/internal/sentiment"
	"webfountain/internal/serve"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

// shadow walks the same documents stage by stage through the internal
// packages' exported functions, one span per layer call.
type shadow struct {
	tr       *tracer
	st       *store.Store
	plat     *webfountain.Platform
	miner    *webfountain.SentimentMiner
	ix       *index.Index
	sidx     *index.SentimentIndex
	agg      *serve.Aggregates
	ckptDir  string
	mined    []string
	batches  int
	facts    int
	mismatch int // documents whose staged facts differ from MineDocument's

	tk       *tokenize.Tokenizer
	nespot   *ne.Spotter
	tagger   *pos.Tagger
	ck       chunk.Chunker
	cs       chunk.Scratch
	analyzer *sentiment.Analyzer
	toks     []tokenize.Token
	sents    []tokenize.Sentence
	words    []string
	ents     []ne.Entity
	tagged   []pos.TaggedToken
	assigns  []sentiment.Assignment
	hits     []sentiment.Assignment
}

func openShadow(dir string, tr *tracer) (*shadow, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{SyncEvery: 1})
	if err != nil {
		return nil, err
	}
	plat, err := webfountain.OpenPlatform(webfountain.PlatformConfig{DataDir: filepath.Join(dir, "platform")})
	if err != nil {
		st.Close()
		return nil, err
	}
	miner, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		st.Close()
		plat.Close()
		return nil, err
	}
	return &shadow{
		tr: tr, st: st, plat: plat, miner: miner,
		ix: index.NewSharded(16), sidx: index.NewSentimentIndex(), agg: serve.NewAggregates(),
		ckptDir: filepath.Join(dir, "ckpt"),
		tk:      tokenize.New(), nespot: ne.New(), tagger: pos.NewTagger(),
		analyzer: sentiment.NewWithOptions(lexicon.Shared(), patterns.Shared(), sentiment.Options{}),
	}, nil
}

func (sh *shadow) close() {
	sh.st.Close()
	sh.plat.Close()
}

// stageClock folds one analysis stage's per-sentence calls into a span.
type stageClock struct {
	first, last time.Time
	busy        time.Duration
	calls       int
}

func (c *stageClock) time(fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	if c.calls == 0 {
		c.first = t0
	}
	c.last = t1
	c.busy += t1.Sub(t0)
	c.calls++
}

// stagedFacts is the miner's query-time mode (named entities become
// subjects) spelled out stage by stage, so each stage can be timed.
func (sh *shadow) stagedFacts(text string) int {
	tr := sh.tr
	id := tr.begin("tokenize")
	sh.toks = sh.tk.AppendTokens(sh.toks[:0], text)
	sh.sents = sh.tk.AppendSentences(sh.sents[:0], sh.toks)
	tr.end(id)

	var spot, tag, chnk, analyze stageClock
	facts := 0
	for _, s := range sh.sents {
		spot.time(func() { sh.ents = sh.nespot.AppendEntities(sh.ents[:0], s.Tokens, -1) })
		if len(sh.ents) == 0 {
			continue
		}
		tag.time(func() { sh.tagged = sh.tagger.AppendTags(sh.tagged[:0], s.Tokens) })
		var clauses []chunk.Clause
		chnk.time(func() { clauses = sh.ck.ClausesInto(&sh.cs, sh.tagged) })
		analyze.time(func() { sh.assigns = sh.analyzer.AppendAssignments(sh.assigns[:0], clauses) })
		if len(sh.assigns) == 0 {
			continue
		}
		for _, e := range sh.ents {
			sh.hits = sentiment.AppendForSpan(sh.hits[:0], sh.assigns, e.Start, e.End)
			facts += len(sh.hits)
		}
	}
	tr.folded("ne.spot", spot.first, spot.last, spot.busy, spot.calls)
	tr.folded("pos.tag", tag.first, tag.last, tag.busy, tag.calls)
	tr.folded("chunk", chnk.first, chnk.last, chnk.busy, chnk.calls)
	tr.folded("sentiment.analyze", analyze.first, analyze.last, analyze.busy, analyze.calls)
	return facts
}

// ingest shadows one ingest request.
func (sh *shadow) ingest(r *ingestReq) error {
	tr := sh.tr
	root := tr.begin("shadow.request")
	defer tr.end(root)

	id := tr.begin("platform.ingest")
	_, err := sh.plat.Ingest(append([]webfountain.Document(nil), r.docs...))
	tr.end(id)
	if err != nil {
		return err
	}

	var batch []serve.Fact
	for i := range r.docs {
		d := &r.docs[i]
		id = tr.begin("store.put")
		err := sh.st.Put(&store.Entity{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text})
		tr.end(id)
		if err != nil {
			return err
		}

		staged := sh.stagedFacts(d.Text)
		sh.words = sh.words[:0]
		for k := range sh.toks {
			sh.words = append(sh.words, sh.toks[k].Text)
		}
		id = tr.begin("index.add")
		sh.ix.Add(d.ID, sh.words)
		tr.end(id)

		id = tr.begin("miner.mine")
		facts := sh.miner.MineDocument(d.ID, d.Text)
		tr.end(id)
		if len(facts) != staged {
			sh.mismatch++
		}

		id = tr.begin("index.sentindex_add")
		for _, f := range facts {
			sh.sidx.Add(index.SentimentEntry{DocID: f.DocID, Sentence: f.Sentence, Subject: f.Subject,
				Polarity: int(f.Polarity), Snippet: f.Snippet, Feature: f.Feature})
		}
		tr.end(id)

		if len(facts) > 0 {
			anns := make([]store.Annotation, 0, len(facts))
			for _, f := range facts {
				anns = append(anns, store.Annotation{Miner: webfountain.MinerName, Type: "polarity",
					Key: f.Subject, Value: f.Polarity.String(), Sentence: f.Sentence})
				batch = append(batch, serve.Fact{Subject: f.Subject, Feature: f.Feature, Date: d.Date,
					Positive: f.Polarity == webfountain.Positive})
			}
			id = tr.begin("store.annotate")
			_, err := sh.st.Annotate(d.ID, anns)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		sh.mined = append(sh.mined, d.ID)
		sh.facts += len(facts)
	}

	id = tr.begin("aggregates.apply")
	sh.agg.Apply(batch)
	tr.end(id)

	sh.batches++
	if sh.batches%8 == 0 {
		id = tr.begin("checkpoint.write")
		err := sh.checkpoint()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpoint persists the shadow's cube the way the tier does: dump the
// sentiment index, sort the watermark, encode, fsync, rename.
func (sh *shadow) checkpoint() error {
	all := sh.sidx.All()
	entries := make([]serve.Entry, 0, len(all))
	for _, e := range all {
		entries = append(entries, serve.Entry{Subject: e.Subject, Polarity: webfountain.Polarity(e.Polarity).String(),
			Doc: e.DocID, Sentence: e.Sentence, Snippet: e.Snippet, Feature: e.Feature})
	}
	mined := append([]string(nil), sh.mined...)
	sort.Strings(mined)
	_, err := serve.WriteCheckpoint(sh.ckptDir, &serve.Checkpoint{View: sh.agg.View(), Entries: entries, MinedDocs: mined}, nil)
	return err
}

// shadowEpilogue is what is measured on the shadow after the replay.
type shadowEpilogue struct {
	facts     int // facts mined from the measured documents
	cubeFacts int // facts in the shadow cube, preload included
	mismatch  int
	ckptWrite time.Duration
	phraseUs  float64
	allUs     float64
	viewUs    float64
}

// epilogue times the final-size costs on the shadow's structures.
func (sh *shadow) epilogue(st *stream) (*shadowEpilogue, error) {
	ep := &shadowEpilogue{facts: sh.facts, cubeFacts: sh.agg.View().Facts(), mismatch: sh.mismatch}
	var err error
	if ep.ckptWrite, err = timeMedian(3, sh.checkpoint); err != nil {
		return nil, err
	}
	ep.phraseUs, ep.allUs = sh.searchTimes(st)
	ep.viewUs = sh.viewReadUs(st.spec)
	return ep, nil
}

// searchTimes times phrase and conjunctive searches on the shadow's
// final index. No gateway endpoint searches; the two are kept because
// ROADMAP flags a 5× regression in phrase search.
func (sh *shadow) searchTimes(st *stream) (phraseUs, allUs float64) {
	var docs []webfountain.Document
	for _, r := range st.preload {
		docs = append(docs, r.docs...)
	}
	for _, r := range st.ingest {
		docs = append(docs, r.docs...)
	}
	var phrase, all []float64
	step := max(1, len(docs)/16)
	for i := 0; i < len(docs); i += step {
		toks := sh.tk.AppendTokens(sh.toks[:0], docs[i].Text)
		var words []string
		for _, t := range toks {
			if t.IsWord() {
				words = append(words, strings.ToLower(t.Text))
			}
			if len(words) == 16 {
				break
			}
		}
		if len(words) < 2 {
			continue
		}
		// The longest adjacent pair of the opening words: a phrase the
		// document is known to hold, without the stop words that would
		// turn the query into a scan of the corpus.
		best := 0
		for k := 1; k+1 < len(words); k++ {
			if len(words[k])+len(words[k+1]) > len(words[best])+len(words[best+1]) {
				best = k
			}
		}
		pair := words[best : best+2]
		t0 := time.Now()
		hits := sh.ix.Search(index.Phrase(pair...))
		t1 := time.Now()
		sh.ix.Search(index.And(index.Term(pair[0]), index.Term(pair[1])))
		t2 := time.Now()
		if len(hits) == 0 {
			continue // a phrase the index does not hold would time the wrong path
		}
		phrase = append(phrase, float64(t1.Sub(t0))/1e3)
		all = append(all, float64(t2.Sub(t1))/1e3)
	}
	return median(phrase), median(all)
}

// viewReadUs times the read side of the aggregates at final cube size:
// one snapshot load plus a series, an aspect and a count read.
func (sh *shadow) viewReadUs(sp spec) float64 {
	var us []float64
	for _, subject := range subjectVocabulary(sp) {
		t0 := time.Now()
		v := sh.agg.View()
		v.Series(subject)
		v.Aspects(subject)
		v.Counts(subject)
		us = append(us, float64(time.Since(t0))/1e3/3)
	}
	return median(us)
}

// allocsPerDoc counts heap allocations per mined document over a sample
// of the stream's documents, on a miner of its own.
func allocsPerDoc(st *stream) float64 {
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return 0
	}
	var docs []webfountain.Document
	for _, r := range st.ingest {
		docs = append(docs, r.docs...)
		if len(docs) >= 256 {
			break
		}
	}
	for _, d := range docs { // warm the arenas
		m.AnalyzeText(d.Text)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, d := range docs {
		m.AnalyzeText(d.Text)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(docs))
}
