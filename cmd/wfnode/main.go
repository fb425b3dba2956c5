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
// With -data-dir the store is durable: every mutation is write-ahead-
// logged there, and a restart recovers the corpus (and rebuilds the
// index from it) instead of regenerating. SIGINT/SIGTERM trigger a
// graceful shutdown that drains in-flight requests and flushes the log.
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
// issuing operations; transport failures are retried with exponential
// backoff (tunable via -retries, -backoff, -call-timeout).
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

	"webfountain/internal/chunk"
	"webfountain/internal/corpus"
	"webfountain/internal/index"
	"webfountain/internal/ingest"
	"webfountain/internal/metrics"
	"webfountain/internal/sentiment"
	"webfountain/internal/services"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
	"webfountain/internal/vinci"

	"webfountain/internal/ne"
	"webfountain/internal/pos"
)

func main() {
	listen := flag.String("listen", "", "serve mode: listen address (e.g. :9410)")
	connect := flag.String("connect", "", "client mode: node address to connect to")
	corpusName := flag.String("corpus", "camera", "corpus to load in serve mode")
	docs := flag.Int("docs", 100, "documents to load in serve mode")
	seed := flag.Int64("seed", 1, "corpus seed")
	dataDir := flag.String("data-dir", "", "serve mode: durable data directory (empty: in-memory)")
	syncEvery := flag.Int("sync-every", 1, "serve mode: sync the write-ahead log every N records")
	admissionDepth := flag.Int("admission-depth", 0, "serve mode: bounded admission queue depth (0: admission control off)")
	shedPolicy := flag.String("shed-policy", "lifo", "serve mode: admission queue order, lifo or fifo")
	metricsAddr := flag.String("metrics-addr", "", "serve mode: HTTP address for /metrics, /metrics.json and /healthz (empty: disabled)")
	pprofAddr := flag.String("pprof-addr", "", "serve mode: HTTP address for net/http/pprof profiling (empty: disabled)")
	get := flag.String("get", "", "client: fetch an entity by ID")
	search := flag.String("search", "", "client: search indexed terms (space-separated, AND)")
	sentimentQ := flag.String("sentiment", "", "client: query a subject's sentiment")
	ping := flag.Bool("ping", false, "client: print the node's health status")
	showMetrics := flag.Bool("metrics", false, "client: dump the node's metrics registry")
	retries := flag.Int("retries", 4, "client: attempts per call on transport failure")
	backoff := flag.Duration("backoff", 25*time.Millisecond, "client: base retry backoff (doubles per retry)")
	callTimeout := flag.Duration("call-timeout", 10*time.Second, "client: total per-call deadline budget, stamped on the wire")
	hedge := flag.Bool("hedge", false, "client: hedge idempotent reads on a second connection after the method's p95")
	flag.Parse()

	switch {
	case *listen != "":
		adm := vinci.AdmissionConfig{Depth: *admissionDepth, Policy: *shedPolicy}
		if *admissionDepth <= 0 {
			adm = vinci.AdmissionConfig{} // zero value: admission off
		}
		if err := serve(*listen, *corpusName, *docs, *seed, *dataDir, *syncEvery, *metricsAddr, *pprofAddr, adm); err != nil {
			log.Fatal(err)
		}
	case *connect != "":
		opts := vinci.DialOptions{
			CallTimeout: *callTimeout,
			Retry: vinci.RetryPolicy{
				MaxAttempts: *retries,
				BaseBackoff: *backoff,
				MaxBackoff:  20 * *backoff,
				Jitter:      0.2,
			},
		}
		if err := client(*connect, opts, *hedge, *ping, *showMetrics, *get, *search, *sentimentQ); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -listen (serve) or -connect (client); see -h")
		os.Exit(2)
	}
}

// serve loads or recovers a corpus, mines it, and serves the Vinci
// services until the listener closes or a shutdown signal arrives.
func serve(addr, corpusName string, docs int, seed int64, dataDir string, syncEvery int, metricsAddr, pprofAddr string, adm vinci.AdmissionConfig) error {
	var st *store.Store
	if dataDir != "" {
		var err error
		st, err = store.Open(dataDir, store.Options{Shards: 16, SyncEvery: syncEvery})
		if err != nil {
			return err
		}
		if ds := st.Durability(); ds.Replayed > 0 || ds.SnapshotLoaded || ds.Quarantined > 0 {
			log.Printf("recovered %d entities from %s (gen %d, %d wal records replayed, %d quarantined, %d torn bytes truncated)",
				st.Len(), dataDir, ds.Generation, ds.Replayed, ds.Quarantined, ds.TruncatedBytes)
		}
	} else {
		st = store.New(16)
	}

	ix := index.New()
	tk := tokenize.New()
	addToIndex := func(e *store.Entity) {
		toks := tk.Tokenize(e.Text)
		words := make([]string, len(toks))
		for i, t := range toks {
			words[i] = t.Text
		}
		ix.Add(e.ID, words)
	}

	// Fresh corpora are indexed in the same worker pass that stores
	// them (the index is sharded, so concurrent workers do not
	// serialize); a recovered corpus is indexed by the sweep below.
	indexed := false
	if st.Len() == 0 {
		var generated []corpus.Document
		switch corpusName {
		case "camera":
			generated = corpus.DigitalCameraReviews(seed, docs)
		case "music":
			generated = corpus.MusicReviews(seed, docs)
		case "petroleum":
			generated = corpus.PetroleumWeb(seed, docs)
		case "pharma":
			generated = corpus.PharmaWeb(seed, docs)
		case "news":
			generated = corpus.PetroleumNews(seed, docs)
		default:
			return fmt.Errorf("unknown corpus %q", corpusName)
		}
		ing := ingest.New(st, 4).WithIndexer(addToIndex)
		stats, err := ing.Run(ingest.FromCorpus(corpusName, generated))
		if err != nil {
			return err
		}
		indexed = true
		log.Printf("ingested and indexed %d documents (%d bytes)", stats.Documents, stats.Bytes)
	}

	// Mine sentiment for the query service; index too when the corpus
	// was recovered from disk rather than freshly ingested.
	sidx := index.NewSentimentIndex()
	tagger := pos.NewTagger()
	an := sentiment.New(nil, nil)
	nesp := ne.New()
	ck := chunk.New()
	reg0 := metrics.Default()
	stageTokenize := reg0.Stage(metrics.StageTokenize)
	stagePOS := reg0.Stage(metrics.StagePOS)
	stageChunk := reg0.Stage(metrics.StageChunk)
	stageSpot := reg0.Stage(metrics.StageSpot)
	stageSentiment := reg0.Stage(metrics.StageSentiment)
	err := st.ForEach(func(e *store.Entity) error {
		if !indexed {
			addToIndex(e)
		}
		// One sample per document and stage, as the library's miner
		// records them: laps sum each stage over the sentences.
		var tok, spot, tag, chunk, analyze time.Duration
		laps := metrics.StartLaps()
		sentences := tk.Sentences(e.Text)
		laps.Lap(&tok)
		for _, s := range sentences {
			entities := nesp.SpotTokens(s.Tokens)
			laps.Lap(&spot)
			if len(entities) == 0 {
				continue
			}
			tagged := tagger.TagSentence(s)
			laps.Lap(&tag)
			clauses := ck.Clauses(tagged)
			laps.Lap(&chunk)
			assignments := an.AnalyzeClauses(clauses)
			for _, ent := range entities {
				for _, h := range sentiment.ForSpan(assignments, ent.Start, ent.End) {
					sidx.Add(index.SentimentEntry{
						DocID: e.ID, Sentence: s.Index, Subject: ent.Text,
						Polarity: int(h.Polarity), Snippet: s.Text(),
					})
				}
			}
			laps.Lap(&analyze)
		}
		stageTokenize.ObserveDuration(tok)
		stageSpot.ObserveDuration(spot)
		stagePOS.ObserveDuration(tag)
		stageChunk.ObserveDuration(chunk)
		stageSentiment.ObserveDuration(analyze)
		return nil
	})
	if err != nil {
		return err
	}
	log.Printf("indexed %d documents, %d sentiment entries", ix.NumDocs(), sidx.Len())

	// Remote puts and deletes land on the store service directly (no
	// local ingest pipeline), so the store hooks keep the inverted index
	// in step.
	node := "wfnode@" + addr
	reg := vinci.NewRegistry()
	services.RegisterStoreWith(reg, st, services.StoreHooks{OnPut: addToIndex, OnDelete: ix.Remove})
	services.RegisterIndex(reg, ix)
	services.RegisterSentiment(reg, sidx)
	services.RegisterHealth(reg, services.HealthOptions{
		Node:     node,
		Registry: reg,
		Entities: st.Len,
		Degraded: st.Degraded,
	})
	services.RegisterMetrics(reg, metrics.Default())

	if metricsAddr != "" {
		mux := http.NewServeMux()
		metrics.Default().RegisterHTTP(mux)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			deg, reason := st.Degraded()
			w.Header().Set("Content-Type", "application/json")
			if deg {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			fmt.Fprintf(w, `{"node":%q,"entities":%d,"degraded":%v,"degraded_reason":%q}`+"\n",
				node, st.Len(), deg, reason)
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
		return err
	}
	log.Printf("wfnode serving %v on %s", reg.Services(), ln.Addr())

	// Graceful shutdown: on SIGINT/SIGTERM drain the Vinci server (stop
	// accepting, finish in-flight exchanges), then flush and close the
	// store's write-ahead log so every acknowledged write survives the
	// restart.
	srv := vinci.NewServerWith(reg, vinci.ServerOptions{Admission: adm})
	if adm.Depth > 0 {
		log.Printf("admission control on: queue depth %d, %s shedding", adm.Depth, adm.Policy)
	}
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
	if cerr := st.Close(); cerr != nil {
		log.Printf("store close: %v", cerr)
		if err == nil {
			err = cerr
		}
	} else if st.Durable() {
		log.Printf("write-ahead log flushed and closed")
	}
	return err
}

// client performs one-shot operations against a running node. The
// node's health service is probed before any operation runs, so a dead
// or half-up node is reported up front instead of failing mid-request.
func client(addr string, opts vinci.DialOptions, hedge, ping, showMetrics bool, get, search, sentimentQ string) error {
	raw, err := vinci.DialWith(addr, opts)
	if err != nil {
		return err
	}
	if hedge {
		// Hedged reads need an independent second transport: a hedge
		// queued behind the stuck call on the same connection would never
		// outrun it. Only services registered idempotent are hedged.
		second, err := vinci.DialWith(addr, opts)
		if err != nil {
			raw.Close()
			return err
		}
		raw = vinci.NewHedged(raw, second, vinci.HedgeOptions{IsIdempotent: services.Idempotent})
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
			pol := "+"
			if e.Polarity < 0 {
				pol = "-"
			}
			fmt.Printf("  [%s] %s s%d: %q\n", pol, e.DocID, e.Sentence, e.Snippet)
		}
	}
	if !did {
		return fmt.Errorf("client mode needs one of -ping, -metrics, -get, -search, -sentiment")
	}
	return nil
}
