package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/serve"
)

// serverFlags are the wfserver flags every run uses, frozen here (and
// repeated in README.md) because BENCHMARK.json admits no extra keys.
// SyncEvery stays at the binary's default of 1 (two WAL fsyncs per
// document). The tenant limiter is raised so it never refuses: a 429
// is a failed operation, not a measurement.
var serverFlags = []string{
	"-docs", "0",
	"-checkpoint-every", "8",
	"-cache-entries", "256",
	"-tenant-rate", "1e9",
	"-tenant-burst", "1000000000",
}

// spec is one workload. Every count below is stated for a 20-second
// run and scales linearly with -seconds, so a run's operation counts
// are a function of (-seconds) alone: two runs at the same -seconds do
// identical work whatever the server's speed.
//
// Every workload drives both sides of the server — an ingest stream on
// connection 1 and a read stream (query mix + visibility probes) on
// connection 2 — because the driver's contract wants every end-to-end
// metric from every workload. What differs is which side is stressed.
type spec struct {
	name string

	longDocs bool // ~6 KB joined reviews instead of ~0.6 KB pharma/news pages
	batch    int  // documents per ingest request
	preload  int  // documents ingested during set-up (per 20 s), in batches of preloadBatch

	// Ingest stream. closedLoop sends the next request when the previous
	// one is acked; otherwise requests are due every 1/ingestPerSec s.
	closedLoop   bool
	ingestReqs   int     // closed loop: requests per 20 s (calibrated, frozen)
	ingestPerSec float64 // open loop: requests per second
	probeEvery   int     // every Nth ingest request carries a probe document

	qps float64 // open-loop query-mix rate on connection 2

	// replayShare is the leading share of the schedule the traced run
	// replays in process (it makes three passes over those requests).
	replayShare float64
}

const (
	restartRounds = 1 // kill -9 restarts per run (a diagnostic and a correctness check; on ingest_bulk one costs 4 s)
	tailBatches   = 5 // batches ingested before each kill, fewer than -checkpoint-every
	preloadBatch  = 64
	baseSeconds   = 20.0
	sentimentMix  = 0.05 // share of /api/sentiment in the query mix
)

// specs are the four workloads, in BENCHMARK.json order. The closed-loop
// request count and the open-loop rates were calibrated once on the
// recording machine (see README.md "Calibration") and are frozen.
var specs = []spec{
	{
		name: "ingest_bulk",
		// Closed-loop 32-doc batches of ~6 KB reviews: per-document work
		// (tokenize/POS/chunk/sentiment, two WAL fsyncs, index add)
		// dominates and per-batch overhead is amortised away.
		longDocs: true, batch: 32, preload: 64,
		closedLoop: true, ingestReqs: 282, probeEvery: 1,
		qps: 100, replayShare: 0.35,
	},
	{
		name: "ingest_trickle",
		// Open-loop single ~0.6 KB docs at 120/s: per-request cost (the two
		// fsyncs, HTTP+JSON, Aggregates.Apply copy, an O(corpus) checkpoint
		// every 8 requests) dominates and mining is 6 %; a bulk-only win
		// must show nothing here. A checkpoint stalls the requests due
		// behind it, and the medians are only steady while well under half
		// of all requests are stalled: at 150/s the 3 000-document corpus
		// of a 20-second run stalled 35-50 %, and the median sat on the
		// cliff between 1.5 and 4 ms. Probes come every 9th request, not
		// every 10th, so that they fall on every position of the 8-request
		// checkpoint cycle as often as requests do.
		batch: 1, preload: 64,
		ingestPerSec: 120, probeEvery: 9,
		qps: 100, replayShare: 1,
	},
	{
		name: "query_storm",
		// 500 QPS Zipf query mix over a preloaded corpus with five 4-doc
		// batches a second: gateway cache, View reads and Entries
		// rendering do the work, the ingest pipeline almost none; misses
		// come only from generation bumps.
		batch: 4, preload: 2048,
		ingestPerSec: 5, probeEvery: 1,
		qps: 500, replayShare: 1,
	},
	{
		name: "mixed_dashboard",
		// Open loop both ways: ten 16-doc batches a second against a 200
		// QPS query mix, so the generation moves every 100 ms, the cache
		// mostly misses and reads contend with ServingTier.mu, checkpoints
		// and mining GC.
		batch: 16, preload: 1024,
		ingestPerSec: 10, probeEvery: 1,
		qps: 200, replayShare: 1,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// probe is the visibility check attached to an ingest request: after
// the ack, the first GET /api/sentiment?name=subject must list docID.
type probe struct {
	subject string
	docID   string
}

type ingestReq struct {
	due   time.Duration // offset from the phase start; 0 in a closed loop
	body  []byte        // the serialized POST /api/ingest body
	docs  []webfountain.Document
	probe *probe
}

type queryReq struct {
	due  time.Duration
	path string
}

// stream is everything a run sends, generated and serialized before the
// clock starts.
type stream struct {
	spec    spec
	seed    int64
	seconds float64
	preload []ingestReq
	ingest  []ingestReq
	queries []queryReq
	// tails are the requests sent before each kill -9 of the restart
	// probe, so every restart finds the same number of batches past the
	// last checkpoint.
	tails [][]ingestReq
}

// scaled scales a per-20-seconds count to the run length, never below 1.
func scaled(n int, seconds float64) int {
	return max(1, int(math.Round(float64(n)*seconds/baseSeconds)))
}

// subSeed derives an independent generator seed per (workload, seed,
// purpose), so workloads sharing a -seed still get different documents.
func subSeed(workload string, seed int64, purpose string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", workload, seed, purpose)
	return int64(h.Sum64() >> 1)
}

// probeNames is the probe-only subject vocabulary: 64 invented
// capitalised names no corpus generator emits, so a visibility read
// returns only probe entries and stays small.
var probeNames = func() []string {
	heads := []string{"Zor", "Quil", "Vexa", "Brim", "Talo", "Nuvi", "Kest", "Dravo"}
	tails := []string{"vex", "mar", "dyne", "lix", "tron", "phar", "zane", "quor"}
	var out []string
	for _, h := range heads {
		for _, t := range tails {
			out = append(out, h+t)
		}
	}
	return out
}()

// probeSentence is the one generator-known sentiment sentence a probe
// document carries.
func probeSentence(i int) (subject, sentence string) {
	name := probeNames[i%len(probeNames)]
	verdict := "excellent"
	if i%2 == 1 {
		verdict = "terrible"
	}
	return strings.ToLower(name), fmt.Sprintf("The %s is %s.", name, verdict)
}

// generate builds a workload's full request stream from the seed.
func generate(sp spec, seed int64, seconds float64) *stream {
	st := &stream{spec: sp, seed: seed, seconds: seconds}

	nPreload := 0
	if sp.preload > 0 {
		nPreload = scaled(sp.preload, seconds)
	}
	var nReqs int
	var gap time.Duration
	if sp.closedLoop {
		nReqs = scaled(sp.ingestReqs, seconds)
	} else {
		nReqs = max(1, int(math.Round(sp.ingestPerSec*seconds)))
		gap = time.Duration(float64(time.Second) / sp.ingestPerSec)
	}

	nTail := restartRounds * tailBatches * sp.batch
	docs := makeDocs(sp, seed, nPreload+nReqs*sp.batch+nTail)
	tailDocs := docs[len(docs)-nTail:]
	docs = docs[:len(docs)-nTail]
	for i := range tailDocs {
		tailDocs[i].ID = fmt.Sprintf("%s-s%d-t%06d", sp.name, seed, i)
	}
	st.tails = make([][]ingestReq, restartRounds)
	for round := range st.tails {
		for b := 0; b < tailBatches; b++ {
			at := (round*tailBatches + b) * sp.batch
			st.tails[round] = append(st.tails[round], newIngestReq(tailDocs[at:at+sp.batch], 0, nil))
		}
	}
	for i := range docs[:nPreload] {
		docs[i].ID = fmt.Sprintf("%s-s%d-p%06d", sp.name, seed, i)
	}
	for i := range docs[nPreload:] {
		docs[nPreload+i].ID = fmt.Sprintf("%s-s%d-%06d", sp.name, seed, i)
	}

	for at := 0; at < nPreload; at += preloadBatch {
		st.preload = append(st.preload, newIngestReq(docs[at:min(at+preloadBatch, nPreload)], 0, nil))
	}
	probes := 0
	for i := 0; i < nReqs; i++ {
		batch := docs[nPreload+i*sp.batch : nPreload+(i+1)*sp.batch]
		var pr *probe
		if i%sp.probeEvery == 0 {
			// The probe sentence rides on the batch's last document.
			last := &batch[len(batch)-1]
			subject, sentence := probeSentence(probes)
			probes++
			last.Text += " " + sentence
			pr = &probe{subject: subject, docID: last.ID}
		}
		st.ingest = append(st.ingest, newIngestReq(batch, time.Duration(i)*gap, pr))
	}

	// The query schedule covers the run length; in a closed loop, where
	// the ingest stream's duration is the thing measured, it is
	// generated three times over and cut when the ingest stream ends.
	qSeconds := seconds
	if sp.closedLoop {
		qSeconds *= 3
	}
	st.queries = makeQueries(sp, seed, qSeconds)
	return st
}

func newIngestReq(docs []webfountain.Document, due time.Duration, pr *probe) ingestReq {
	wire := struct {
		Docs []serve.Doc `json:"docs"`
	}{Docs: make([]serve.Doc, len(docs))}
	for i, d := range docs {
		wire.Docs[i] = serve.Doc{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err) // plain strings cannot fail to marshal
	}
	return ingestReq{due: due, body: body, docs: docs, probe: pr}
}

// makeDocs generates n documents of the workload's size class from
// internal/corpus: short ones alternate pharma web pages and petroleum
// news; long ones join five alternating camera and music reviews.
func makeDocs(sp spec, seed int64, n int) []webfountain.Document {
	out := make([]webfountain.Document, 0, n)
	if !sp.longDocs {
		half := (n + 1) / 2
		pharma := corpus.PharmaWeb(subSeed(sp.name, seed, "pharma"), half)
		news := corpus.PetroleumNews(subSeed(sp.name, seed, "news"), half)
		for i := 0; len(out) < n; i++ {
			for _, d := range []*corpus.Document{&pharma[i], &news[i]} {
				if len(out) < n {
					out = append(out, webfountain.Document{Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text()})
				}
			}
		}
		return out
	}
	const join = 5
	half := (n*join + 1) / 2
	camera := corpus.DigitalCameraReviews(subSeed(sp.name, seed, "camera"), half)
	music := corpus.MusicReviews(subSeed(sp.name, seed, "music"), half)
	for i := 0; i < n; i++ {
		parts := make([]string, 0, join)
		var first *corpus.Document
		for k := i * join; k < (i+1)*join; k++ {
			d := &camera[k/2]
			if k%2 == 1 {
				d = &music[k/2]
			}
			if first == nil {
				first = d
			}
			parts = append(parts, d.Text())
		}
		out = append(out, webfountain.Document{
			Source: first.Source, Title: first.Title, Date: first.Date, Text: strings.Join(parts, " "),
		})
	}
	return out
}

// makeQueries builds the open-loop query mix: a Zipf draw over the
// subject vocabulary crossed with the gateway's read endpoints; 5% ask
// /api/sentiment, whose body grows with the corpus. Subjects × endpoints
// (at most 26 × 3 + 2 keys) fits the 256-entry result cache.
func makeQueries(sp spec, seed int64, seconds float64) []queryReq {
	subjects := subjectVocabulary(sp)
	r := rand.New(rand.NewSource(subSeed(sp.name, seed, "queries")))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(subjects)-1))
	n := max(1, int(math.Round(sp.qps*seconds)))
	gap := time.Duration(float64(time.Second) / sp.qps)
	out := make([]queryReq, n)
	for i := range out {
		name := url.QueryEscape(subjects[zipf.Uint64()])
		var path string
		switch x := r.Float64(); {
		case x < sentimentMix:
			path = "/api/sentiment?name=" + name
		case x < 0.40:
			path = "/api/trend?name=" + name
		case x < 0.75:
			path = "/api/aspects?name=" + name
		case x < 0.90:
			path = "/api/subjects"
		default:
			path = "/api/overview"
		}
		out[i] = queryReq{due: time.Duration(i) * gap, path: path}
	}
	return out
}

// subjectVocabulary is the workload's query subjects: the generators'
// own company, product and album names, interleaved in declaration
// order, which is what the query-time miner indexes as subjects.
func subjectVocabulary(sp spec) []string {
	a, b := corpus.PharmaCompanies, corpus.PetroleumCompanies
	if sp.longDocs {
		a, b = corpus.CameraProducts, corpus.MusicAlbums
	}
	var out []string
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) {
			out = append(out, strings.ToLower(a[i]))
		}
		if i < len(b) {
			out = append(out, strings.ToLower(b[i]))
		}
	}
	return out
}

// digest fingerprints the stream — every body, path and due time — for
// the determinism test and for -compare's "same inputs" refusal.
func (st *stream) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(d time.Duration, p []byte) {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
		h.Write(p)
		h.Write([]byte{0})
	}
	for _, r := range st.preload {
		put(r.due, r.body)
	}
	for _, r := range st.ingest {
		put(r.due, r.body)
	}
	for _, tail := range st.tails {
		for _, r := range tail {
			put(r.due, r.body)
		}
	}
	for _, q := range st.queries {
		put(q.due, []byte(q.path))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// docCount returns the documents in a request slice.
func docCount(reqs []ingestReq) int {
	n := 0
	for _, r := range reqs {
		n += len(r.docs)
	}
	return n
}
