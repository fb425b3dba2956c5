package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"webfountain"
	"webfountain/internal/metrics"
	"webfountain/internal/serve"
)

// perLayer are the metrics a -trace 1 run reports, layer by layer (the
// layers are the repository's modules; µs values are per document
// unless the name says otherwise). The list must match BENCHMARK.json's
// per_layer (a test checks it). README.md says which end-to-end metric
// each one should move, and on which workload.
var perLayer = []metricDef{
	{"gateway.ingest_overhead_us", "us"},
	{"gateway.query_hit_us", "us"},
	{"gateway.query_miss_us", "us"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"gateway.ratelimit_denied", "count"},
	{"serving.ingest_us", "us"},
	{"serving.entries_us", "us"},
	{"serving.checkpoint_ms", "ms"},
	{"serving.recover_ms", "ms"},
	{"platform.ingest_us", "us"},
	{"platform.open_ms", "ms"},
	{"store.put_us", "us"},
	{"store.annotate_us", "us"},
	{"store.fsync_us", "us"},
	{"store.wal_fsyncs_per_doc", "count"},
	{"store.wal_bytes_per_doc", "B/doc"},
	{"index.add_us", "us"},
	{"index.sentindex_add_us", "us"},
	{"index.search_phrase_us", "us"},
	{"index.search_all_us", "us"},
	{"tokenize.us", "us"},
	{"ne.spot_us", "us"},
	{"pos.tag_us", "us"},
	{"chunk.us", "us"},
	{"sentiment.analyze_us", "us"},
	{"miner.mine_us", "us"},
	{"miner.facts_per_doc", "count"},
	{"miner.allocs_per_doc", "count"},
	{"aggregates.apply_us_per_batch", "us"},
	{"aggregates.view_read_us", "us"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.writes", "count"},
	{"trace.budget_coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (-1 for a request's root).
// The per-sentence analysis stages would be hundreds of thousands of
// spans, so each is folded into one span per document: Start and End
// bracket the document's calls, BusyNs is their summed duration and
// Calls their number. For every other span BusyNs is End-Start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	BusyNs int64  `json:"busy_ns"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends. Replay is serial, so
// the open spans form a stack and the top of it is the parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	req   int
	off   bool // set while the shadow takes the preload, which is not measured
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil || t.off {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Calls: 1,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.BusyNs = s.End - s.Start
	t.open = t.open[:len(t.open)-1]
}

// folded records one per-document stage span from accumulated calls.
func (t *tracer) folded(name string, first, last time.Time, busy time.Duration, calls int) {
	if t == nil || t.off || calls == 0 {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name,
		Start: int64(first.Sub(t.t0)), End: int64(last.Sub(t.t0)), BusyNs: int64(busy), Calls: calls})
}

// busy sums the spans of one name — of every request, or only of the
// requests in only — and lists each span's time in µs.
func (t *tracer) busy(name string, only map[int]bool) (total time.Duration, each []float64) {
	for i := range t.spans {
		if t.spans[i].Name == name && (only == nil || only[t.spans[i].Req]) {
			total += time.Duration(t.spans[i].BusyNs)
			each = append(each, float64(t.spans[i].BusyNs)/1e3)
		}
	}
	return total, each
}

// tracedBackend times the gateway's calls into the serving tier from
// outside it: no span is added inside the program.
type tracedBackend struct {
	tier *webfountain.ServingTier
	tr   *tracer
}

func (b *tracedBackend) View() *serve.View {
	id := b.tr.begin("serving.view")
	defer b.tr.end(id)
	return b.tier.View()
}

func (b *tracedBackend) Entries(ctx context.Context, subject string) []serve.Entry {
	id := b.tr.begin("serving.entries")
	defer b.tr.end(id)
	return b.tier.Entries(ctx, subject)
}

func (b *tracedBackend) Ingest(ctx context.Context, docs []serve.Doc) ([]string, int, error) {
	id := b.tr.begin("serving.ingest")
	defer b.tr.end(id)
	return b.tier.Ingest(ctx, docs)
}

func (b *tracedBackend) Degraded() (bool, string) { return b.tier.Degraded() }
func (b *tracedBackend) NumDocs() int             { return b.tier.NumDocs() }

// replayReq is one request of the serial in-process replay.
type replayReq struct {
	ingest *ingestReq
	path   string // GET path when ingest is nil
}

// replaySchedule merges the ingest and query streams in due-time order
// (a closed loop's requests are spread evenly over the run length) and
// keeps the leading replayShare of the schedule.
func replaySchedule(st *stream) []replayReq {
	cut := time.Duration(st.spec.replayShare * st.seconds * float64(time.Second))
	type timed struct {
		due time.Duration
		req replayReq
	}
	var all []timed
	for i := range st.ingest {
		r := &st.ingest[i]
		due := r.due
		if st.spec.closedLoop {
			due = time.Duration(float64(i) / float64(len(st.ingest)) * st.seconds * float64(time.Second))
		}
		if due < cut {
			all = append(all, timed{due, replayReq{ingest: r}})
		}
	}
	for _, q := range st.queries {
		if q.due < cut {
			all = append(all, timed{q.due, replayReq{path: q.path}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].due < all[j].due })
	out := make([]replayReq, len(all))
	for i := range all {
		out[i] = all[i].req
	}
	return out
}

// tracedBlock says whether the n-th ingest request of the replay goes
// through the traced gateway. Traced and untraced requests alternate in
// blocks of eight over one tier, so both halves see the same corpus
// sizes, the same fsync weather and one checkpoint per block (the tier
// checkpoints every eighth batch); comparing the halves gives the
// tracing overhead without a second pass whose disk luck differs.
func tracedBlock(n int) bool { return n%16 < 8 }

// realStack is the production serving stack, assembled in process:
// one durable platform, miner and serving tier behind two gateways, the
// plain one and one whose calls into the tier are timed.
type realStack struct {
	dataDir, ckptDir string
	platform         *webfountain.Platform
	tier             *webfountain.ServingTier
	plain, traced    http.Handler
	tr               *tracer
	stats            *replayStats
}

func gatewayConfig() serve.GatewayConfig {
	return serve.GatewayConfig{CacheEntries: 256, TenantRate: 1e9, TenantBurst: 1_000_000_000}
}

// openStack opens (or re-opens) the stack on dir the way wfserver's
// durable boot does, and reports how long the platform open and the
// serving-tier recovery took.
func openStack(dir string) (s *realStack, opened, recovered time.Duration, err error) {
	s = &realStack{dataDir: filepath.Join(dir, "data"), ckptDir: filepath.Join(dir, "ckpt"), tr: newTracer(),
		stats: &replayStats{tracedReq: map[int]bool{}, counts: map[string]int64{}}}
	t0 := time.Now()
	p, err := webfountain.OpenPlatform(webfountain.PlatformConfig{DataDir: s.dataDir})
	if err != nil {
		return nil, 0, 0, err
	}
	opened = time.Since(t0)
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		p.Close()
		return nil, 0, 0, err
	}
	t1 := time.Now()
	tier, _, err := webfountain.RecoverServingTier(p, m, webfountain.ServingTierConfig{
		CheckpointDir: s.ckptDir, CheckpointEvery: 8,
	})
	if err != nil {
		p.Close()
		return nil, 0, 0, err
	}
	recovered = time.Since(t1)
	s.platform, s.tier = p, tier
	s.plain = webfountain.NewServingGateway(tier, gatewayConfig())
	s.traced = serve.NewGateway(&tracedBackend{tier: tier, tr: s.tr}, gatewayConfig())
	return s, opened, recovered, nil
}

// replayStats is what the replay over the real stack observed.
type replayStats struct {
	tracedIngest   time.Duration // Σ ServeHTTP over traced ingest requests
	tracedDocs     int
	untracedIngest time.Duration
	untracedDocs   int
	tracedReq      map[int]bool // schedule indices of the traced ingest requests
	ingests        int
	counts         map[string]int64 // realCounters, summed over this stack's requests
	attempted      int
	failed         int
	failures       []string
	hitUs, missUs  []float64
}

func (rs *replayStats) fail(format string, args ...any) {
	rs.failed++
	if len(rs.failures) < 8 {
		rs.failures = append(rs.failures, fmt.Sprintf(format, args...))
	}
}

// serveOne runs one request through a handler; with a tracer the call
// is the request's root span.
func serveOne(h http.Handler, tr *tracer, method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := tr.begin("gateway.serve")
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	tr.end(id)
	return rec, d
}

// preload ingests the set-up documents, unmeasured.
func (s *realStack) preload(st *stream) error {
	for i, r := range st.preload {
		if rec, _ := serveOne(s.plain, nil, http.MethodPost, "/api/ingest", r.body); rec.Code != http.StatusOK {
			return fmt.Errorf("in-process preload batch %d: status %d", i, rec.Code)
		}
	}
	return nil
}

// realCounters are the program's own existing counters the traced run
// reads. They are summed over the real stack's requests only: the
// shadow, which runs between those requests, moves the same registry.
var realCounters = []string{"store.wal.syncs", "serving.checkpoints", "serve.cache.hits", "serve.cache.misses", "serve.ratelimit.denied"}

func readCounters() []int64 {
	out := make([]int64, len(realCounters))
	for i, name := range realCounters {
		out[i] = metrics.Default().Counter(name).Value()
	}
	return out
}

// do sends request i of the schedule through the real stack, with the
// visibility read after a probe. Reads always take the traced gateway
// (so its cache sees the whole query mix); ingest requests alternate
// between the two gateways in blocks.
func (s *realStack) do(i int, r replayReq) {
	rs := s.stats
	before := readCounters()
	defer func() {
		for k, v := range readCounters() {
			rs.counts[realCounters[k]] += v - before[k]
		}
	}()
	get := func(path string) (*httptest.ResponseRecorder, time.Duration) {
		rs.attempted++
		return serveOne(s.traced, s.tr, http.MethodGet, path, nil)
	}
	s.tr.req = i
	if r.ingest == nil {
		rec, d := get(r.path)
		if rec.Code != http.StatusOK {
			rs.fail("GET %s: status %d", r.path, rec.Code)
		} else if rec.Header().Get("X-Cache") == "hit" {
			rs.hitUs = append(rs.hitUs, float64(d)/1e3)
		} else {
			rs.missUs = append(rs.missUs, float64(d)/1e3)
		}
		return
	}
	rs.attempted++
	h, tr := s.plain, (*tracer)(nil)
	if tracedBlock(rs.ingests) {
		h, tr = s.traced, s.tr
	}
	rs.ingests++
	rec, d := serveOne(h, tr, http.MethodPost, "/api/ingest", r.ingest.body)
	if rec.Code != http.StatusOK {
		rs.fail("ingest request %d: status %d", i, rec.Code)
		return
	}
	if tr != nil {
		rs.tracedReq[i] = true
		rs.tracedIngest += d
		rs.tracedDocs += len(r.ingest.docs)
	} else {
		rs.untracedIngest += d
		rs.untracedDocs += len(r.ingest.docs)
	}
	if pr := r.ingest.probe; pr != nil {
		rec, _ := get("/api/sentiment?name=" + url.QueryEscape(pr.subject))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"doc":"`+pr.docID+`"`) {
			rs.fail("probe document %s not listed on the first read after its ack (status %d)", pr.docID, rec.Code)
		}
	}
}

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

func newestFileSize(dir, suffix string) int64 {
	entries, _ := os.ReadDir(dir)
	var newest string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) && e.Name() > newest {
			newest = e.Name()
		}
	}
	if info, err := os.Stat(filepath.Join(dir, newest)); err == nil && newest != "" {
		return info.Size()
	}
	return 0
}

func dirBytes(dir, prefix string) int64 {
	entries, _ := os.ReadDir(dir)
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasPrefix(e.Name(), prefix) {
			total += info.Size()
		}
	}
	return total
}

// realEpilogue is what is measured on the real stack after the replay.
type realEpilogue struct {
	walBytes          int64
	facts             int
	opened, recovered time.Duration
	tierCkpt          time.Duration
	ckptLoad          time.Duration
	ckptBytes         int64
	entriesUs         []float64
}

// crashRestart closes the replayed stack the way kill -9 would — the
// tier is dropped without its final checkpoint — recovers it on the
// same directories, and times the recovery and the final-size costs.
func crashRestart(s *realStack, dir string, sp spec) (*realEpilogue, error) {
	ep := &realEpilogue{walBytes: dirBytes(s.dataDir, "wal-"), facts: s.tier.View().Facts()}
	s.platform.Close()
	s, opened, recovered, err := openStack(dir)
	if err != nil {
		return nil, err
	}
	defer s.platform.Close()
	ep.opened, ep.recovered = opened, recovered
	if got := s.tier.View().Facts(); got != ep.facts {
		return nil, fmt.Errorf("recovered tier holds %d facts, the tier before the restart held %d", got, ep.facts)
	}
	if ep.tierCkpt, err = timeMedian(3, s.tier.Checkpoint); err != nil {
		return nil, err
	}
	ep.ckptLoad, err = timeMedian(3, func() error { _, _, err := serve.LoadCheckpoint(s.ckptDir); return err })
	if err != nil {
		return nil, err
	}
	ep.ckptBytes = newestFileSize(s.ckptDir, ".ck")
	for _, subject := range subjectVocabulary(sp) {
		t0 := time.Now()
		s.tier.Entries(context.Background(), subject)
		ep.entriesUs = append(ep.entriesUs, float64(time.Since(t0))/1e3)
	}
	return ep, nil
}

// runTraced is the traced run: the leading requests of the workload,
// replayed in process and serially, through the real stack (with the
// gateway's calls into the tier timed from outside) and through the
// stage-by-stage shadow of the same documents.
func runTraced(e *env, sp spec, seed int64, seconds float64) (*result, error) {
	// The replay plays the server's part, so it runs where the server does.
	pinProcess(placement.server)
	st := generate(sp, seed, seconds)
	res := newResult(st, true)
	reqs := replaySchedule(st)
	work, err := os.MkdirTemp(e.buildDir, "trace-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Both passes advance together, request by request, so the real
	// stack and its shadow meet the same disk weather: the budget
	// compares like with like.
	realDir := filepath.Join(work, "real")
	stack, _, _, err := openStack(realDir)
	if err != nil {
		return nil, err
	}
	sh, err := openShadow(filepath.Join(work, "shadow"), newTracer())
	if err != nil {
		stack.platform.Close()
		return nil, err
	}
	defer sh.close()
	// The preload is not measured: the real stack takes it through the
	// plain gateway, the shadow with its tracer switched off.
	sh.tr.off = true
	err = stack.preload(st)
	for i := 0; err == nil && i < len(st.preload); i++ {
		err = sh.ingest(&st.preload[i])
	}
	sh.tr.off = false
	sh.facts = 0
	fsync0 := metrics.Default().Histogram("store.wal.fsync.ns").Snapshot()
	for i := 0; err == nil && i < len(reqs); i++ {
		stack.do(i, reqs[i])
		if reqs[i].ingest != nil {
			sh.tr.req = i
			err = sh.ingest(reqs[i].ingest)
		}
	}
	fsync1 := metrics.Default().Histogram("store.wal.fsync.ns").Snapshot()
	if err != nil {
		stack.platform.Close()
		return nil, err
	}
	rp, err := crashRestart(stack, realDir, sp)
	if err != nil {
		return nil, err
	}
	sp2, err := sh.epilogue(st)
	if err != nil {
		return nil, err
	}
	rs, real, shTr := stack.stats, stack.tr, sh.tr

	// Correctness of the traced run: every replayed request answered
	// 200, every probe was visible, the shadow's stages reproduce the
	// miner's facts, and the real tier and the shadow agree on the cube.
	res.Attempted, res.Failed = rs.attempted, rs.failed
	for _, f := range rs.failures {
		res.note("failed op: %s", f)
	}
	if sp2.mismatch > 0 {
		res.incorrect("shadow stages disagree with MineDocument on %d documents", sp2.mismatch)
	}
	if sp2.cubeFacts != rp.facts {
		res.incorrect("shadow cube holds %d facts, the real tier %d", sp2.cubeFacts, rp.facts)
	}
	delta := func(name string) float64 { return float64(rs.counts[name]) }
	if delta("serve.ratelimit.denied") != 0 {
		res.incorrect("the tenant limiter refused %v requests in process", delta("serve.ratelimit.denied"))
	}

	docs := float64(rs.tracedDocs + rs.untracedDocs)
	tracedDocs := float64(rs.tracedDocs)
	perDoc := func(name string) float64 {
		total, _ := shTr.busy(name, nil)
		return float64(total) / 1e3 / docs
	}
	// Gateway self time on the traced ingest requests: ServeHTTP minus
	// the calls it made into the tier (limiter, JSON decode and encode
	// are what is left).
	ingestTotal, _ := real.busy("serving.ingest", nil)
	viewTotal, _ := real.busy("serving.view", rs.tracedReq)
	gatewaySelf := rs.tracedIngest - ingestTotal - viewTotal
	_, applyEach := shTr.busy("aggregates.apply", nil)
	lastQuarter := applyEach[len(applyEach)*3/4:]

	// The budget: what the shadow's layers add up to for the traced
	// requests, over the real in-process time of those same requests.
	shadowSum := gatewaySelf
	for _, name := range budgetLayers {
		total, _ := shTr.busy(name, rs.tracedReq)
		shadowSum += total
	}
	coverage := float64(shadowSum) / float64(rs.tracedIngest)
	overhead := 0.0
	if rs.untracedDocs > 0 {
		tracedPer := float64(rs.tracedIngest) / tracedDocs
		untracedPer := float64(rs.untracedIngest) / float64(rs.untracedDocs)
		overhead = 100 * (tracedPer - untracedPer) / untracedPer
	}
	hitRatio := 0.0
	if lookups := delta("serve.cache.hits") + delta("serve.cache.misses"); lookups > 0 {
		hitRatio = delta("serve.cache.hits") / lookups
	}
	// Mean WAL fsync over the whole replay, the real stack's and the
	// shadow's alike: it is one disk.
	fsyncUs := 0.0
	if n := fsync1.Count - fsync0.Count; n > 0 {
		fsyncUs = float64(fsync1.Sum-fsync0.Sum) / float64(n) / 1e3
	}

	res.Metrics = map[string]metricValue{
		"gateway.ingest_overhead_us":    {float64(gatewaySelf) / 1e3 / tracedDocs, "us"},
		"gateway.query_hit_us":          {median(rs.hitUs), "us"},
		"gateway.query_miss_us":         {median(rs.missUs), "us"},
		"gateway.cache_hit_ratio":       {hitRatio, "ratio"},
		"gateway.ratelimit_denied":      {delta("serve.ratelimit.denied"), "count"},
		"serving.ingest_us":             {float64(ingestTotal) / 1e3 / tracedDocs, "us"},
		"serving.entries_us":            {median(rp.entriesUs), "us"},
		"serving.checkpoint_ms":         {ms(rp.tierCkpt), "ms"},
		"serving.recover_ms":            {ms(rp.recovered), "ms"},
		"platform.ingest_us":            {perDoc("platform.ingest"), "us"},
		"platform.open_ms":              {ms(rp.opened), "ms"},
		"store.put_us":                  {perDoc("store.put"), "us"},
		"store.annotate_us":             {perDoc("store.annotate"), "us"},
		"store.fsync_us":                {fsyncUs, "us"},
		"store.wal_fsyncs_per_doc":      {delta("store.wal.syncs") / docs, "count"},
		"store.wal_bytes_per_doc":       {float64(rp.walBytes) / (docs + float64(docCount(st.preload))), "B/doc"},
		"index.add_us":                  {perDoc("index.add"), "us"},
		"index.sentindex_add_us":        {perDoc("index.sentindex_add"), "us"},
		"index.search_phrase_us":        {sp2.phraseUs, "us"},
		"index.search_all_us":           {sp2.allUs, "us"},
		"tokenize.us":                   {perDoc("tokenize"), "us"},
		"ne.spot_us":                    {perDoc("ne.spot"), "us"},
		"pos.tag_us":                    {perDoc("pos.tag"), "us"},
		"chunk.us":                      {perDoc("chunk"), "us"},
		"sentiment.analyze_us":          {perDoc("sentiment.analyze"), "us"},
		"miner.mine_us":                 {perDoc("miner.mine"), "us"},
		"miner.facts_per_doc":           {float64(sp2.facts) / docs, "count"},
		"miner.allocs_per_doc":          {allocsPerDoc(st), "count"},
		"aggregates.apply_us_per_batch": {median(lastQuarter), "us"},
		"aggregates.view_read_us":       {sp2.viewUs, "us"},
		"checkpoint.write_ms":           {ms(sp2.ckptWrite), "ms"},
		"checkpoint.load_ms":            {ms(rp.ckptLoad), "ms"},
		"checkpoint.bytes":              {float64(rp.ckptBytes), "B"},
		"checkpoint.writes":             {delta("serving.checkpoints"), "count"},
		"trace.budget_coverage":         {coverage, "ratio"},
		"trace.overhead_pct":            {overhead, "%"},
	}
	res.Ops["replayed_requests"], res.Ops["replayed_docs"] = len(reqs), int(docs)
	res.Ops["traced_ingest_docs"] = rs.tracedDocs
	res.Samples = map[string]int{"cache_hits": len(rs.hitUs), "cache_misses": len(rs.missUs),
		"apply_batches": len(lastQuarter), "spans_real": len(real.spans), "spans_shadow": len(shTr.spans)}
	printBudget(res, real, shTr, rs, gatewaySelf, coverage)
	tracePath := filepath.Join(e.outDir, "trace-"+sp.name+".json")
	if err := writeTrace(tracePath, real, shTr); err != nil {
		return nil, err
	}
	res.note("spans written to %s", tracePath)
	return res, nil
}

// budgetLayers are the shadow spans that, with the gateway's self time,
// should add up to a real ingest request; the layers nested inside them
// (store.put, tokenize, index.add, the analysis stages) are detail.
var budgetLayers = []string{"platform.ingest", "miner.mine", "store.annotate", "aggregates.apply", "checkpoint.write"}

// printBudget prints the layer budget: where the traced ingest
// requests' time goes as the shadow accounts for it, against the real
// in-process time of the same requests. Coverage outside 0.85–1.15 is
// reported as unexplained rather than normalised away.
func printBudget(res *result, real, sh *tracer, rs *replayStats, gatewaySelf time.Duration, coverage float64) {
	if rs.tracedDocs == 0 {
		return
	}
	fmt.Printf("layer budget over %d traced ingest requests (%d documents)\n", len(rs.tracedReq), rs.tracedDocs)
	row := func(name string, d time.Duration, indent string) {
		fmt.Printf("  %-36s %10.1f us/doc %6.1f%%\n", indent+name, float64(d)/1e3/float64(rs.tracedDocs), 100*float64(d)/float64(rs.tracedIngest))
	}
	row("real ServeHTTP", rs.tracedIngest, "")
	row("gateway self (real)", gatewaySelf, "  ")
	realIngest, _ := real.busy("serving.ingest", nil)
	row("serving.ingest (real)", realIngest, "  ")
	for _, l := range []struct{ name, indent string }{
		{"platform.ingest", "    "}, {"store.put", "      "}, {"tokenize", "      "}, {"index.add", "      "},
		{"miner.mine", "    "}, {"ne.spot", "      "}, {"pos.tag", "      "}, {"chunk", "      "},
		{"sentiment.analyze", "      "}, {"index.sentindex_add", "      "},
		{"store.annotate", "    "}, {"aggregates.apply", "    "}, {"checkpoint.write", "    "},
	} {
		d, _ := sh.busy(l.name, rs.tracedReq)
		row(l.name+" (shadow)", d, l.indent)
	}
	verdict := "explained"
	if coverage < 0.85 || coverage > 1.15 {
		verdict = "UNEXPLAINED: the shadow's layers do not add up to the real request time"
		res.note("layer budget coverage %.3f is outside 0.85-1.15", coverage)
	}
	fmt.Printf("  budget coverage %.3f (%s)\n", coverage, verdict)
}

func writeTrace(path string, real, sh *tracer) error {
	data, err := json.Marshal(struct {
		Real   []span `json:"real"`
		Shadow []span `json:"shadow"`
	}{real.spans, sh.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
