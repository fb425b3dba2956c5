// Command wfserver hosts the sentiment mining results as a Web service —
// the equivalent of the WebFountain application server behind Figures 4
// and 5 of the paper. It ingests a generated corpus at startup and then
// serves it live: every page and query, HTML and JSON alike, renders
// from one snapshot (View) of incrementally-maintained materialized
// aggregates and their sentiment entries, the JSON behind a bounded
// result cache, and new documents POSTed to the ingest endpoint are
// mined online, with the cache invalidated on every batch.
//
//	GET  /                      — HTML overview: sentiment per subject
//	GET  /subject?name=X        — HTML listing of sentiment-bearing
//	                              sentences for a subject (Figure 5)
//	GET  /api/subjects          — JSON subject list with counts + share
//	GET  /api/sentiment?name=X  — JSON sentiment entries for a subject
//	GET  /api/trend?name=X      — JSON monthly sentiment series
//	GET  /api/aspects?name=X    — JSON per-feature (aspect) counts
//	GET  /api/overview          — JSON corpus totals + aggregate generation
//	POST /api/ingest            — ingest + mine documents online
//	GET  /metrics               — plain-text metrics registry dump
//	GET  /metrics.json          — full metrics snapshot as JSON
//	GET  /healthz               — liveness; 503 when the store is degraded
//
// Every /api request draws a per-tenant rate-limit token (x-tenant
// header; empty means the default tenant) and is answered 429 when the
// tenant's bucket is empty.
//
// Usage:
//
//	wfserver [-addr :8085] [-corpus pharma] [-docs 120] [-seed 7]
//	         [-data-dir ""] [-checkpoint-dir ""] [-checkpoint-every 8]
//	         [-cache-entries 256] [-tenant-rate 50] [-tenant-burst 100]
//	         [-max-ingest-bytes 8388608] [-request-timeout 0]
//	         [-pprof-addr :8086] [-drain-timeout 10s]
//
// With -data-dir the corpus lives in a durable write-ahead-logged
// store, and the store is all a restart needs: every acked document
// comes back, its sentiment facts are read back from the annotations it
// was stored with, and only documents stored without them are mined —
// after a SIGKILL as after a clean exit. -checkpoint-dir and
// -checkpoint-every are deprecated and ignored; no checkpoint file is
// written.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops
// accepting, in-flight requests drain for up to -drain-timeout, the
// store's log is closed, and the final metrics registry is flushed to
// the log before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"html/template"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/metrics"
	"webfountain/internal/serve"
)

var overviewTmpl = template.Must(template.New("overview").Parse(`<!DOCTYPE html>
<html><head><title>WebFountain Sentiment Miner</title>
<style>
 body { font-family: sans-serif; margin: 2em; }
 table { border-collapse: collapse; }
 td, th { border: 1px solid #999; padding: 4px 10px; text-align: left; }
 .bar { background: #4a4; display: inline-block; height: 12px; }
 .neg { background: #a44; }
</style></head><body>
<h1>Sentiment mining results</h1>
<p>{{.Docs}} documents mined; {{.Facts}} sentiment facts extracted.</p>
<table>
<tr><th>subject</th><th>positive</th><th>negative</th><th>positive share</th></tr>
{{range .Rows}}
<tr><td><a href="/subject?name={{.Subject}}">{{.Subject}}</a></td>
<td>{{.Pos}}</td><td>{{.Neg}}</td>
<td><span class="bar" style="width:{{.Share}}px"></span> {{.Share}}%</td></tr>
{{end}}
</table></body></html>`))

var subjectTmpl = template.Must(template.New("subject").Parse(`<!DOCTYPE html>
<html><head><title>{{.Name}} — sentiment</title>
<style>
 body { font-family: sans-serif; margin: 2em; }
 li { margin: 4px 0; }
 .plus { color: #070; } .minus { color: #900; }
</style></head><body>
<h1>Sentiment-bearing sentences for “{{.Name}}”</h1>
<p><a href="/">back</a> — {{.Pos}} positive, {{.Neg}} negative</p>
<ul>
{{range .Entries}}
<li class="{{if eq .Polarity "+"}}plus{{else}}minus{{end}}">
[{{if eq .Polarity "+"}}+{{else}}−{{end}}] <b>{{.Doc}}</b> s{{.Sentence}}: {{.Snippet}}</li>
{{end}}
</ul></body></html>`))

func main() {
	addr := flag.String("addr", ":8085", "listen address")
	corpusName := flag.String("corpus", "pharma", "corpus: camera, music, petroleum, pharma, news, bboard")
	docs := flag.Int("docs", 120, "documents to mine at startup")
	seed := flag.Int64("seed", 7, "corpus seed")
	dataDir := flag.String("data-dir", "", "durable store root (empty: in-memory, corpus is lost on exit)")
	flag.String("checkpoint-dir", "", "Deprecated: ignored (the store is the serving tier's only durable state)")
	flag.Int("checkpoint-every", 8, "Deprecated: ignored")
	cacheEntries := flag.Int("cache-entries", 256, "bounded LRU result cache size (negative: disable caching)")
	tenantRate := flag.Float64("tenant-rate", 50, "per-tenant steady request rate (tokens/second)")
	tenantBurst := flag.Int("tenant-burst", 100, "per-tenant token-bucket burst size")
	maxIngestBytes := flag.Int64("max-ingest-bytes", 8<<20, "largest accepted /api/ingest body in bytes (negative: unbounded)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request handling deadline propagated into backend calls (0: none)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris bound)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout")
	pprofAddr := flag.String("pprof-addr", "", "HTTP address for net/http/pprof profiling (empty: disabled)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound for draining in-flight requests")
	flag.Parse()

	platform, tier, err := boot(*corpusName, *docs, *seed, *dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mux := newMux(tier, serve.GatewayConfig{
		CacheEntries:   *cacheEntries,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		MaxIngestBytes: *maxIngestBytes,
		RequestTimeout: *requestTimeout,
	})

	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on the default mux.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	log.Printf("serving sentiment for %d documents on %s", platform.NumEntities(), *addr)
	// Real timeouts on every phase of a connection's life, so a
	// slowloris client trickling headers or never reading its response
	// cannot pin server resources forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// Graceful shutdown: stop accepting, drain in-flight requests for a
	// bounded window, close the store, then flush the final metrics so
	// the run's numbers survive the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("received %v, draining for up to %v", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
			srv.Close()
		}
		if err := platform.Close(); err != nil {
			log.Printf("platform close: %v", err)
		}
		log.Printf("final metrics:\n%s", metrics.Default().Text())
	}
}

// boot opens the platform and its serving tier through
// webfountain.OpenServing — recovered from the store, an empty store
// seeded with the generated corpus as one tier ingest batch — and logs
// what recovery did. A store that already holds documents, or -docs 0,
// seeds nothing.
func boot(corpusName string, docs int, seed int64, dataDir string) (
	*webfountain.Platform, *webfountain.ServingTier, error) {
	start := time.Now()
	platform, tier, rec, err := webfountain.OpenServing(webfountain.PlatformConfig{DataDir: dataDir},
		func() ([]serve.Doc, error) { return buildCorpus(corpusName, docs, seed) })
	if err != nil {
		return nil, nil, err
	}
	log.Printf("serving recovery: folded=%d repaired=%d docs; booted in %v (platform.open=%v miner.new=%v serving.recover=%v), generation %d",
		rec.FoldedDocs, rec.RepairedDocs, time.Since(start).Round(time.Microsecond),
		bootPhase("platform.open.ns"), bootPhase("miner.new.ns"), bootPhase("serving.recover.ns"),
		tier.View().Generation())
	return platform, tier, nil
}

// bootPhase reads back the time OpenServing recorded for one boot phase.
// The process boots once, so the histogram's sum is that boot's time.
func bootPhase(name string) time.Duration {
	return time.Duration(metrics.Default().Histogram(name).Snapshot().Sum).Round(time.Microsecond)
}

// newMux mounts the serving-tier gateway for the JSON API, the health
// probe and ingest, and the HTML views beside it. The gateway handles
// its own caching, rate limiting and degraded-mode semantics; each HTML
// page renders from one View of the same backend, so it shows exactly
// what the JSON API serves. backend is the serving tier (an indirection
// the tests use to fake degraded mode).
func newMux(backend serve.Backend, cfg serve.GatewayConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		type row struct {
			Subject  string
			Pos, Neg int
			Share    int
		}
		v := backend.View()
		var rows []row
		for _, s := range v.Subjects() {
			c := v.Counts(s)
			rows = append(rows, row{Subject: s, Pos: c.Positive, Neg: c.Negative, Share: c.Share()})
		}
		data := struct {
			Docs, Facts int
			Rows        []row
		}{backend.NumDocs(), v.Facts(), rows}
		if err := overviewTmpl.Execute(w, data); err != nil {
			log.Print(err)
		}
	})
	mux.HandleFunc("/subject", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "missing name parameter", http.StatusBadRequest)
			return
		}
		v := backend.View()
		c := v.Counts(name)
		data := struct {
			Name     string
			Pos, Neg int
			Entries  []serve.Entry
		}{name, c.Positive, c.Negative, v.Entries(name)}
		if err := subjectTmpl.Execute(w, data); err != nil {
			log.Print(err)
		}
	})
	gw := serve.NewGateway(backend, cfg)
	mux.Handle("/api/", gw)
	mux.Handle("/healthz", gw)
	metrics.Default().RegisterHTTP(mux)
	return mux
}

// buildCorpus generates the named corpus as ingestable documents.
func buildCorpus(corpusName string, docs int, seed int64) ([]serve.Doc, error) {
	gen, _, err := corpus.Named(corpusName)
	if err != nil {
		return nil, err
	}
	generated := gen(seed, docs)
	pub := make([]serve.Doc, len(generated))
	for i := range generated {
		pub[i] = serve.Doc{
			ID: generated[i].ID, Source: generated[i].Source,
			Title: generated[i].Title, Text: generated[i].Text(),
			// The date used to be dropped here, leaving the trend
			// endpoint with no time buckets to serve.
			Date: generated[i].Date,
		}
	}
	return pub, nil
}
