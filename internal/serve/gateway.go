package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"webfountain/internal/deadline"
	"webfountain/internal/metrics"
)

// Gateway metrics, alongside the cache and limiter counters.
var (
	gwRequests  = metrics.Default().Counter("serve.gateway.requests")
	gwRequestNs = metrics.Default().Histogram("serve.gateway.request.ns")
	gwIngested  = metrics.Default().Counter("serve.gateway.ingest.docs")
	gwPanics    = metrics.Default().Counter("serve.gateway.panics")
	gwStale     = metrics.Default().Counter("serve.gateway.stale")
)

// Entry is one sentiment-bearing mention as served by the gateway.
type Entry struct {
	Subject  string `json:"subject"`
	Polarity string `json:"polarity"` // "+" or "-"
	Doc      string `json:"doc"`
	Sentence int    `json:"sentence"`
	Snippet  string `json:"snippet"`
	Feature  string `json:"feature,omitempty"`
}

// Doc is one document submitted through the gateway's ingest endpoint.
type Doc struct {
	ID     string `json:"id,omitempty"`
	Source string `json:"source,omitempty"`
	Title  string `json:"title,omitempty"`
	Date   string `json:"date,omitempty"`
	Text   string `json:"text"`
}

// Backend is what the gateway serves: a live platform + miner behind
// the aggregate layer. Every read renders from one View — counts,
// series, aspects and entries alike — so a response never mixes two
// ingest batches. webfountain.ServingTier is the production
// implementation.
type Backend interface {
	// View returns the current aggregate snapshot.
	View() *View
	// Ingest stores, indexes and mines new documents online, folds the
	// extracted facts into the aggregates and bumps the generation. It
	// returns the assigned IDs and the number of facts mined. A batch
	// cut short by the context's request deadline returns the prefix
	// that is stored, mined and visible together with an error wrapping
	// context.DeadlineExceeded; the rest of the batch is the client's to
	// resend. A batch whose write the store refuses returns no IDs and
	// the store's error: none of it was stored.
	Ingest(ctx context.Context, docs []Doc) (ids []string, facts int, err error)
	// Degraded reports the store's degraded read-only mode.
	Degraded() (bool, string)
	// NumDocs returns the number of stored documents.
	NumDocs() int
}

// GatewayConfig tunes the gateway. Zero values select defaults.
type GatewayConfig struct {
	// CacheEntries bounds the LRU result cache (default 256; negative
	// disables caching).
	CacheEntries int
	// TenantRate and TenantBurst configure the per-tenant token
	// buckets; see LimiterConfig (defaults 50/s, burst 100).
	TenantRate  float64
	TenantBurst int
	// MaxTenants bounds the tracked tenant buckets (default 1024).
	MaxTenants int
	// Clock overrides the limiter clock, for tests.
	Clock func() time.Time
	// RequestTimeout bounds every request's handling time; the deadline
	// propagates into backend calls via the request context (default 0:
	// no gateway-imposed deadline). A client may tighten — never
	// loosen — it per request with an x-deadline-ms header.
	RequestTimeout time.Duration
	// MaxIngestBytes bounds the POST /api/ingest request body; an
	// oversized body is refused with 413 (default 8 MiB; negative
	// disables the bound).
	MaxIngestBytes int64
}

// defaultMaxIngestBytes is GatewayConfig.MaxIngestBytes's default.
const defaultMaxIngestBytes = 8 << 20

// Gateway is the HTTP/JSON query API of the live serving tier:
//
//	GET  /api/subjects        — subject list with counts and share
//	GET  /api/sentiment?name= — sentiment-bearing mentions of a subject
//	GET  /api/trend?name=     — materialized monthly sentiment series
//	GET  /api/aspects?name=   — per-feature (aspect) counts
//	GET  /api/overview        — corpus totals and aggregate generation
//	POST /api/ingest          — ingest + mine documents online
//	GET  /healthz             — liveness; 503 in degraded read-only mode
//
// GET responses are cached in a bounded LRU keyed on the request and
// the aggregate generation, so a response can never be staler than one
// ingest batch; every /api request draws a per-tenant rate-limit token
// (the x-tenant header names the tenant, "" is the default bucket) and
// is answered 429 when the bucket is empty.
type Gateway struct {
	backend   Backend
	cache     *Cache
	limit     *Limiter
	mux       *http.ServeMux
	timeout   time.Duration
	maxIngest int64
}

// NewGateway builds a gateway over a backend.
func NewGateway(b Backend, cfg GatewayConfig) *Gateway {
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = 256
	}
	maxIngest := cfg.MaxIngestBytes
	if maxIngest == 0 {
		maxIngest = defaultMaxIngestBytes
	}
	g := &Gateway{
		backend: b,
		cache:   NewCache(entries),
		limit: NewLimiter(LimiterConfig{
			Rate: cfg.TenantRate, Burst: cfg.TenantBurst,
			MaxTenants: cfg.MaxTenants, Now: cfg.Clock,
		}),
		mux:       http.NewServeMux(),
		timeout:   cfg.RequestTimeout,
		maxIngest: maxIngest,
	}
	g.mux.HandleFunc("/api/subjects", g.limited(g.cached(g.handleSubjects)))
	g.mux.HandleFunc("/api/sentiment", g.limited(g.cached(g.handleSentiment)))
	g.mux.HandleFunc("/api/trend", g.limited(g.cached(g.handleTrend)))
	g.mux.HandleFunc("/api/aspects", g.limited(g.cached(g.handleAspects)))
	g.mux.HandleFunc("/api/overview", g.limited(g.cached(g.handleOverview)))
	g.mux.HandleFunc("/api/ingest", g.limited(g.handleIngest))
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	return g
}

// Cache exposes the result cache (for stats and tests).
func (g *Gateway) Cache() *Cache { return g.cache }

// ServeHTTP implements http.Handler. It is the gateway's failure
// envelope: a handler panic is recovered into a 500 (counted in
// serve.gateway.panics) so one poisoned request cannot take the server
// down, and the per-request deadline — the tighter of RequestTimeout
// and the client's x-deadline-ms header — is installed on the request
// context here so every backend call downstream observes it.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gwRequests.Inc()
	span := gwRequestNs.Start()
	defer span.End()
	defer func() {
		if p := recover(); p != nil {
			gwPanics.Inc()
			jsonError(w, http.StatusInternalServerError,
				fmt.Sprintf("internal error: %v", p))
		}
	}()
	if d := g.deadlineFor(r); d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
	}
	g.mux.ServeHTTP(w, r)
}

// deadlineFor resolves a request's handling budget: the configured
// RequestTimeout, tightened (never loosened) by an x-deadline-ms
// header. Zero means no deadline.
func (g *Gateway) deadlineFor(r *http.Request) time.Duration {
	d := g.timeout
	if hd, ok := deadline.ParseMS(r.Header.Get(deadline.Param)); ok && hd > 0 && (d == 0 || hd < d) {
		d = hd
	}
	return d
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// limited wraps a handler with the per-tenant token bucket.
func (g *Gateway) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !g.limit.Allow(r.Header.Get("x-tenant")) {
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "tenant rate limit exceeded")
			return
		}
		h(w, r)
	}
}

// renderFunc renders one endpoint against an aggregate snapshot. A nil
// body with a non-zero status means "error already described".
type renderFunc func(v *View, r *http.Request) (body any, status int, errMsg string)

// cached wraps a render function with the generation-keyed LRU: a hit
// serves the stored bytes; a miss renders against the snapshot the
// generation was read from, then stores the bytes under that
// generation. The snapshot is immutable, so a response and its cache
// tag can never disagree about which ingest batch they reflect. A render
// whose request deadline has expired is answered 504, and its body is
// neither written nor stored.
func (g *Gateway) cached(render renderFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := g.backend.View()
		// Serve-stale: a degraded (read-only) store stops ingest, not
		// reads — the last-good aggregate snapshot keeps answering, and
		// the X-Stale header tells the client why the data has stopped
		// moving instead of the read erroring out.
		if deg, _ := g.backend.Degraded(); deg {
			w.Header().Set("X-Stale", "store-degraded")
			gwStale.Inc()
		}
		key := r.URL.Path + "?" + r.URL.RawQuery
		if body, ok := g.cache.Get(key, v.Generation()); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "hit")
			w.Write(body)
			return
		}
		obj, status, errMsg := render(v, r)
		if errMsg != "" {
			jsonError(w, status, errMsg)
			return
		}
		if err := r.Context().Err(); err != nil {
			jsonError(w, http.StatusGatewayTimeout, "request deadline expired: "+err.Error())
			return
		}
		body, err := json.Marshal(obj)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, err.Error())
			return
		}
		body = append(body, '\n')
		g.cache.Put(key, v.Generation(), body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Write(body)
	}
}

// subjectRow is the wire schema of one /api/subjects row. The explicit
// tags are load-bearing: without them the wire format mixed "subject"
// with Go-cased "Positive"/"Negative", and the schema compat test pins
// the lower-case form.
type subjectRow struct {
	Subject  string `json:"subject"`
	Positive int    `json:"positive"`
	Negative int    `json:"negative"`
	Share    int    `json:"share"`
}

func (g *Gateway) handleSubjects(v *View, _ *http.Request) (any, int, string) {
	rows := make([]subjectRow, 0, len(v.Subjects()))
	for _, s := range v.Subjects() {
		c := v.Counts(s)
		rows = append(rows, subjectRow{
			Subject: s, Positive: c.Positive, Negative: c.Negative, Share: c.Share(),
		})
	}
	return rows, http.StatusOK, ""
}

// name extracts the required ?name= parameter.
func name(r *http.Request) (string, string) {
	n := r.URL.Query().Get("name")
	if n == "" {
		return "", "missing name parameter"
	}
	return n, ""
}

func (g *Gateway) handleSentiment(v *View, r *http.Request) (any, int, string) {
	n, errMsg := name(r)
	if errMsg != "" {
		return nil, http.StatusBadRequest, errMsg
	}
	entries := v.Entries(n)
	if entries == nil {
		entries = []Entry{}
	}
	return entries, http.StatusOK, ""
}

func (g *Gateway) handleTrend(v *View, r *http.Request) (any, int, string) {
	n, errMsg := name(r)
	if errMsg != "" {
		return nil, http.StatusBadRequest, errMsg
	}
	series := v.Series(n)
	if series == nil {
		series = []Bucket{}
	}
	return struct {
		Subject string   `json:"subject"`
		Series  []Bucket `json:"series"`
	}{n, series}, http.StatusOK, ""
}

func (g *Gateway) handleAspects(v *View, r *http.Request) (any, int, string) {
	n, errMsg := name(r)
	if errMsg != "" {
		return nil, http.StatusBadRequest, errMsg
	}
	aspects := v.Aspects(n)
	if aspects == nil {
		aspects = []AspectCount{}
	}
	return struct {
		Subject string        `json:"subject"`
		Aspects []AspectCount `json:"aspects"`
	}{n, aspects}, http.StatusOK, ""
}

func (g *Gateway) handleOverview(v *View, _ *http.Request) (any, int, string) {
	t := v.Totals()
	return struct {
		Documents  int    `json:"documents"`
		Subjects   int    `json:"subjects"`
		Facts      int    `json:"facts"`
		Generation uint64 `json:"generation"`
		Positive   int    `json:"positive"`
		Negative   int    `json:"negative"`
		Share      int    `json:"share"`
	}{g.backend.NumDocs(), len(v.Subjects()), v.Facts(), v.Generation(),
		t.Positive, t.Negative, t.Share()}, http.StatusOK, ""
}

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if deg, reason := g.backend.Degraded(); deg {
		jsonError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("store degraded (read-only): %s", reason))
		return
	}
	// The body is read into a pooled buffer and leaves it as one string:
	// the documents cut from that string outlive the request in the
	// store, so none of them may alias the buffer.
	bp, _ := bodyBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf, err := readIngestBody(*bp, r.Body, r.ContentLength, g.maxIngest)
	body := ""
	if err == nil {
		body = string(buf)
	}
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		bodyBufs.Put(bp)
	}
	if errors.Is(err, errTooLarge) {
		jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", g.maxIngest))
		return
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	docs, err := decodeIngest(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(docs) == 0 {
		jsonError(w, http.StatusBadRequest, "no documents")
		return
	}
	ids, facts, err := g.backend.Ingest(r.Context(), docs)
	gwIngested.Add(int64(len(ids)))
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		// A batch cut short still acked a prefix: those documents are
		// stored, mined and visible, so the body names them and the
		// client resends only the rest. An expired deadline is not a
		// server fault (504); anything else is (500).
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(struct {
			Error string   `json:"error"`
			IDs   []string `json:"ids,omitempty"`
		}{err.Error(), ids})
		return
	}
	json.NewEncoder(w).Encode(struct {
		IDs        []string `json:"ids"`
		Facts      int      `json:"facts"`
		Generation uint64   `json:"generation"`
	}{ids, facts, g.backend.View().Generation()})
}

// handleHealthz mirrors wfnode's health semantics: a healthy node
// answers 200, a degraded one answers 503 with the reason, so a load
// balancer rotates it out instead of sending writes at a read-only
// store.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	v := g.backend.View()
	if deg, reason := g.backend.Degraded(); deg {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(struct {
			Status     string `json:"status"`
			Reason     string `json:"reason"`
			Documents  int    `json:"documents"`
			Generation uint64 `json:"generation"`
		}{"degraded", reason, g.backend.NumDocs(), v.Generation()})
		return
	}
	json.NewEncoder(w).Encode(struct {
		Status     string `json:"status"`
		Documents  int    `json:"documents"`
		Generation uint64 `json:"generation"`
	}{"ok", g.backend.NumDocs(), v.Generation()})
}
