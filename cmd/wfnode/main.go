// Command wfnode runs one WebFountain node: it loads a corpus, mines it,
// and serves the store, index and sentiment services over the Vinci
// protocol so remote application components can use the platform — the
// paper's "collection of Web service APIs".
//
// Server:
//
//	wfnode -listen :9410 [-corpus camera] [-docs 100] [-seed 1]
//	       [-data-dir /var/wfnode] [-sync-every 1]
//	       [-metrics-addr :9411] [-pprof-addr :9412]
//
// With -metrics-addr the node serves its metrics registry over HTTP:
// /metrics (plain text), /metrics.json (full snapshot) and /healthz.
// -pprof-addr exposes net/http/pprof on a separate listener. The same
// registry is always available over Vinci via the "metrics" service.
//
// The node boots, ingests and serves through the same pipeline as
// cmd/wfserver: the generated corpus is ingested through the serving
// tier, which mines each document once into the store; a remote store-
// service put is one more tier ingest, so it is mined, indexed and
// served; the sentiment service answers from the tier's View, the
// snapshot /api/sentiment renders; and the index service searches the
// platform's inverted index, built by the first search.
//
// With -data-dir the store is durable: every mutation is write-ahead-
// logged there, and a restart recovers the corpus and its sentiment
// facts from the store instead of regenerating. SIGINT/SIGTERM trigger
// a graceful shutdown that drains in-flight requests and flushes the
// log.
//
// Client (one-shot operations against a running node):
//
//	wfnode -connect host:9410 -get <docID>
//	wfnode -connect host:9410 -search "battery life"
//	wfnode -connect host:9410 -sentiment NR70
//	wfnode -connect host:9410 -ping
//	wfnode -connect host:9410 -metrics
//
// Every client run first probes the node's health service before
// issuing operations. Each call is one attempt within -call-timeout; a
// transport failure is reported, not retried.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/metrics"
	"webfountain/internal/services"
	"webfountain/internal/vinci"
)

func main() {
	listen := flag.String("listen", "", "serve mode: listen address (e.g. :9410)")
	connect := flag.String("connect", "", "client mode: node address to connect to")
	corpusName := flag.String("corpus", "camera", "corpus to load in serve mode")
	docs := flag.Int("docs", 100, "documents to load in serve mode")
	seed := flag.Int64("seed", 1, "corpus seed")
	dataDir := flag.String("data-dir", "", "serve mode: durable data directory (empty: in-memory)")
	syncEvery := flag.Int("sync-every", 1, "serve mode: sync the write-ahead log every N records")
	metricsAddr := flag.String("metrics-addr", "", "serve mode: HTTP address for /metrics, /metrics.json and /healthz (empty: disabled)")
	pprofAddr := flag.String("pprof-addr", "", "serve mode: HTTP address for net/http/pprof profiling (empty: disabled)")
	get := flag.String("get", "", "client: fetch an entity by ID")
	search := flag.String("search", "", "client: search indexed terms (space-separated, AND)")
	sentimentQ := flag.String("sentiment", "", "client: query a subject's sentiment")
	ping := flag.Bool("ping", false, "client: print the node's health status")
	showMetrics := flag.Bool("metrics", false, "client: dump the node's metrics registry")
	callTimeout := flag.Duration("call-timeout", 10*time.Second, "client: per-call deadline budget, stamped on the wire")
	flag.Parse()

	switch {
	case *listen != "":
		if err := serve(*listen, *corpusName, *docs, *seed, *dataDir, *syncEvery, *metricsAddr, *pprofAddr); err != nil {
			log.Fatal(err)
		}
	case *connect != "":
		if err := client(*connect, *callTimeout, *ping, *showMetrics, *get, *search, *sentimentQ); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -listen (serve) or -connect (client); see -h")
		os.Exit(2)
	}
}

// serve boots the node (boot) and serves its Vinci services (registry)
// until the listener closes or a shutdown signal arrives.
func serve(addr, corpusName string, docs int, seed int64, dataDir string, syncEvery int, metricsAddr, pprofAddr string) error {
	platform, tier, err := boot(corpusName, docs, seed, dataDir, syncEvery)
	if err != nil {
		return err
	}
	node := "wfnode@" + addr
	reg := registry(node, platform, tier)

	if metricsAddr != "" {
		mux := http.NewServeMux()
		metrics.Default().RegisterHTTP(mux)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			deg, reason := platform.Degraded()
			w.Header().Set("Content-Type", "application/json")
			if deg {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			fmt.Fprintf(w, `{"node":%q,"entities":%d,"degraded":%v,"degraded_reason":%q}`+"\n",
				node, platform.NumEntities(), deg, reason)
		})
		go func() {
			log.Printf("metrics on http://%s/metrics", metricsAddr)
			if err := http.ListenAndServe(metricsAddr, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	if pprofAddr != "" {
		// net/http/pprof registers its handlers on the default mux.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		platform.Close()
		return err
	}
	log.Printf("wfnode serving %v on %s", reg.Services(), ln.Addr())

	// Graceful shutdown: on SIGINT/SIGTERM drain the Vinci server (stop
	// accepting, finish in-flight exchanges), then close the platform,
	// flushing the store's write-ahead log so every acknowledged write
	// survives the restart.
	srv := vinci.NewServer(reg)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("received %v, shutting down", sig)
		if cerr := srv.Close(); cerr != nil {
			log.Printf("server close: %v", cerr)
		}
	}()
	err = srv.Serve(ln)
	if cerr := platform.Close(); cerr != nil {
		log.Printf("platform close: %v", cerr)
		if err == nil {
			err = cerr
		}
	} else if dataDir != "" {
		log.Printf("write-ahead log flushed and closed")
	}
	return err
}

// boot opens the node through the same root-package boot as cmd/wfserver
// (webfountain.OpenServing): the platform, durable under dataDir when it
// is set, its serving tier recovered from the store, and an empty store
// seeded with the generated corpus through the tier's own ingest.
func boot(corpusName string, docs int, seed int64, dataDir string, syncEvery int) (
	*webfountain.Platform, *webfountain.ServingTier, error) {
	platform, tier, rec, err := webfountain.OpenServing(
		webfountain.PlatformConfig{DataDir: dataDir, SyncEvery: syncEvery},
		func() ([]webfountain.ServingDoc, error) {
			gen, _, err := corpus.Named(corpusName)
			if err != nil {
				return nil, err
			}
			generated := gen(seed, docs)
			pub := make([]webfountain.ServingDoc, len(generated))
			for i := range generated {
				pub[i] = webfountain.ServingDoc{
					ID: generated[i].ID, Source: generated[i].Source, Title: generated[i].Title,
					Date: generated[i].Date, Text: generated[i].Text(),
				}
			}
			return pub, nil
		})
	if err != nil {
		return nil, nil, err
	}
	log.Printf("serving recovery: folded=%d repaired=%d docs; %d documents, %d sentiment facts served",
		rec.FoldedDocs, rec.RepairedDocs, platform.NumEntities(), tier.View().Facts())
	return platform, tier, nil
}

// registry builds the node's Vinci services over a booted platform and
// its tier. The store service reads the platform's store and writes
// through the tier, so a remote put is mined, indexed and served; the
// index service searches the platform's inverted index, built by the
// first search; the sentiment service answers from the tier's View.
func registry(node string, platform *webfountain.Platform, tier *webfountain.ServingTier) *vinci.Registry {
	reg := vinci.NewRegistry()
	services.RegisterStore(reg, tier.Store())
	services.RegisterIndex(reg, platform.InvertedIndex)
	services.RegisterSentiment(reg, tier)
	services.RegisterHealth(reg, services.HealthOptions{
		Node:     node,
		Registry: reg,
		Entities: platform.NumEntities,
		Degraded: platform.Degraded,
	})
	services.RegisterMetrics(reg, metrics.Default())
	return reg
}

// client performs one-shot operations against a running node. The
// node's health service is probed before any operation runs, so a dead
// or half-up node is reported up front instead of failing mid-request.
func client(addr string, callTimeout time.Duration, ping, showMetrics bool, get, search, sentimentQ string) error {
	raw, err := vinci.Dial(addr, callTimeout)
	if err != nil {
		return err
	}
	defer raw.Close()
	// One trace ID per invocation: every call this run makes carries it,
	// so the node's logs and metrics can be correlated with this client.
	conn := vinci.Traced(raw, metrics.NewTraceID())

	if err := services.Probe(conn); err != nil {
		return fmt.Errorf("node %s unhealthy: %w", addr, err)
	}

	did := false
	if ping {
		did = true
		st, err := services.HealthClient{C: conn}.Status()
		if err != nil {
			return err
		}
		fmt.Printf("%s: up %v, %d entities, serving %v\n", st.Node, st.Uptime, st.Entities, st.Services)
		if st.Degraded {
			fmt.Printf("  DEGRADED (read-only): %s\n", st.DegradedReason)
		}
	}
	if showMetrics {
		did = true
		text, err := services.MetricsClient{C: conn}.Text()
		if err != nil {
			return err
		}
		fmt.Print(text)
	}
	if get != "" {
		did = true
		e, err := services.StoreClient{C: conn}.Get(get)
		if err != nil {
			return err
		}
		data, err := e.MarshalIndent()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	if search != "" {
		did = true
		ids, err := services.IndexClient{C: conn}.Search("all", strings.Fields(search)...)
		if err != nil {
			return err
		}
		fmt.Printf("%d documents match %q:\n", len(ids), search)
		for _, id := range ids {
			fmt.Println(" ", id)
		}
	}
	if sentimentQ != "" {
		did = true
		sc := services.SentimentClient{C: conn}
		pos, neg, err := sc.Counts(sentimentQ)
		if err != nil {
			return err
		}
		fmt.Printf("%q: %d positive, %d negative\n", sentimentQ, pos, neg)
		entries, err := sc.Query(sentimentQ)
		if err != nil {
			return err
		}
		for i, e := range entries {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(entries)-10)
				break
			}
			fmt.Printf("  [%s] %s s%d: %q\n", e.Polarity, e.Doc, e.Sentence, e.Snippet)
		}
	}
	if !did {
		return fmt.Errorf("client mode needs one of -ping, -metrics, -get, -search, -sentiment")
	}
	return nil
}
