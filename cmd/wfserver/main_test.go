package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"webfountain"
	"webfountain/internal/serve"
)

// degradable wraps the serving tier so tests can force degraded mode
// without corrupting a real store.
type degradable struct {
	*webfountain.ServingTier
	degraded bool
	reason   string
}

func (d *degradable) Degraded() (bool, string) { return d.degraded, d.reason }

func testServerCfg(t *testing.T, cfg serve.GatewayConfig) (*httptest.Server, *degradable) {
	t.Helper()
	platform, tier, err := boot("pharma", 25, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { platform.Close() })
	backend := &degradable{ServingTier: tier}
	srv := httptest.NewServer(newMux(backend, cfg))
	t.Cleanup(srv.Close)
	return srv, backend
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := testServerCfg(t, serve.GatewayConfig{})
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func getCached(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("X-Cache")
}

// entriesOf renders every subject's entries: a view's fingerprint covers
// its cells, not what /api/sentiment serves.
func entriesOf(v *serve.View) string {
	var b strings.Builder
	for _, s := range v.Subjects() {
		fmt.Fprintf(&b, "%s: %+v\n", s, v.Entries(s))
	}
	return b.String()
}

func TestBootRejectsUnknownCorpus(t *testing.T) {
	if _, _, err := boot("bogus", 5, 1, ""); err == nil {
		t.Error("unknown corpus should fail")
	}
}

// TestBootSeedsFreshDurableStoreThroughTier: the first durable boot
// recovers an empty tier and then ingests the seed corpus through it —
// one batch, one publish, every entity annotated by the ingest step —
// and a restart over the same directory seeds nothing and folds the
// stored annotations back into the same aggregates, its generation
// advanced by the documents recovered. -docs 0 (the benchmark's flags)
// is a no-op: no publish, no generation.
func TestBootSeedsFreshDurableStoreThroughTier(t *testing.T) {
	dataDir := t.TempDir()
	platform, tier, err := boot("pharma", 25, 3, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	v := tier.View()
	if platform.NumEntities() != 25 || v.Generation() != 1 || v.Facts() == 0 {
		t.Fatalf("seeded boot: %d docs, generation %d, %d facts; want 25 docs in one publish",
			platform.NumEntities(), v.Generation(), v.Facts())
	}
	memory, memTier, err := boot("pharma", 25, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer memory.Close()
	if got, want := v.Fingerprint(), memTier.View().Fingerprint(); got != want {
		t.Errorf("durable and in-memory boots of one corpus disagree: %s != %s", got, want)
	}
	if entriesOf(v) != entriesOf(memTier.View()) {
		t.Error("durable and in-memory boots of one corpus serve different entries")
	}
	if err := platform.Close(); err != nil {
		t.Fatal(err)
	}

	platform2, tier2, err := boot("camera", 99, 4, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	defer platform2.Close()
	v2 := tier2.View()
	if platform2.NumEntities() != 25 || v2.Generation() != 25 || v2.Fingerprint() != v.Fingerprint() ||
		entriesOf(v2) != entriesOf(v) {
		t.Errorf("restart: %d docs, generation %d, fingerprint match %v, entries match %v; want the seeded state at generation 25",
			platform2.NumEntities(), v2.Generation(), v2.Fingerprint() == v.Fingerprint(), entriesOf(v2) == entriesOf(v))
	}

	empty, emptyTier, err := boot("pharma", 0, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if g := emptyTier.View().Generation(); empty.NumEntities() != 0 || g != 0 {
		t.Errorf("-docs 0 boot: %d docs, generation %d; want an untouched empty tier", empty.NumEntities(), g)
	}
}

func TestOverviewPage(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	for _, want := range []string{"Sentiment mining results", "documents mined", "/subject?name="} {
		if !strings.Contains(body, want) {
			t.Errorf("overview missing %q", want)
		}
	}
}

func TestSubjectPage(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/subject?name=medicure")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(body, "medicure") || !strings.Contains(body, "positive") {
		t.Errorf("subject page incomplete: %.200s", body)
	}
	if status, _ := get(t, srv.URL+"/subject"); status != 400 {
		t.Errorf("missing name should be 400, got %d", status)
	}
}

// TestAPISubjectsSchema pins the wire schema of /api/subjects: every key
// lower-case, share present. The untagged struct this replaces leaked
// Go-cased "Positive"/"Negative" field names to every API consumer.
func TestAPISubjectsSchema(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/api/subjects")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	var raw []map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("bad json: %v (%.100s)", err, body)
	}
	if len(raw) == 0 {
		t.Fatal("no subjects")
	}
	want := []string{"negative", "positive", "share", "subject"}
	for i, row := range raw {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Fatalf("row %d keys = %v, want %v", i, keys, want)
		}
	}
	var rows []struct {
		Subject            string `json:"subject"`
		Positive, Negative int
		Share              int `json:"share"`
	}
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		total += r.Positive + r.Negative
		if r.Share < 0 || r.Share > 100 {
			t.Errorf("%s: share %d out of range", r.Subject, r.Share)
		}
	}
	if total == 0 {
		t.Error("no sentiment counted")
	}
}

func TestAPISentiment(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/api/sentiment?name=medicure")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	var entries []serve.Entry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries for medicure")
	}
	for _, e := range entries {
		if e.Polarity != "+" && e.Polarity != "-" {
			t.Errorf("bad polarity %q", e.Polarity)
		}
	}
	if status, _ := get(t, srv.URL+"/api/sentiment"); status != 400 {
		t.Errorf("missing name should be 400, got %d", status)
	}
	// Unknown subject: empty JSON array, not null.
	_, body = get(t, srv.URL+"/api/sentiment?name=nonesuch")
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("unknown subject body = %q, want []", body)
	}
}

// TestAPITrend exercises the materialized series — and would catch the
// old bug where wfserver dropped corpus dates, leaving trend empty.
func TestAPITrend(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/api/trend?name=medicure")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	var resp struct {
		Subject string         `json:"subject"`
		Series  []serve.Bucket `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if len(resp.Series) == 0 {
		t.Fatal("no time buckets — are corpus dates reaching the platform?")
	}
	for i := 1; i < len(resp.Series); i++ {
		if resp.Series[i-1].Month >= resp.Series[i].Month {
			t.Errorf("series not chronological: %s >= %s",
				resp.Series[i-1].Month, resp.Series[i].Month)
		}
	}
	if status, _ := get(t, srv.URL+"/api/trend"); status != 400 {
		t.Errorf("missing name should be 400, got %d", status)
	}
}

func TestAPIAspects(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/api/aspects?name=medicure")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	var resp struct {
		Subject string              `json:"subject"`
		Aspects []serve.AspectCount `json:"aspects"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if status, _ := get(t, srv.URL+"/api/aspects"); status != 400 {
		t.Errorf("missing name should be 400, got %d", status)
	}
}

func TestAPIOverview(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/api/overview")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	var resp struct {
		Documents  int    `json:"documents"`
		Subjects   int    `json:"subjects"`
		Facts      int    `json:"facts"`
		Generation uint64 `json:"generation"`
		Share      int    `json:"share"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if resp.Documents != 25 || resp.Subjects == 0 || resp.Facts == 0 || resp.Generation == 0 {
		t.Errorf("implausible overview: %+v", resp)
	}
}

// TestAPICacheInvalidationOnIngest: a repeated query hits the cache; an
// ingest batch bumps the generation, so the next query misses, re-renders
// against the new snapshot and includes the new batch's subject — the
// response is never staler than one ingest batch. The HTML pages serve
// the same snapshot: the new subject's page lists its snippet, and every
// row of the overview carries the counts /api/subjects serves.
func TestAPICacheInvalidationOnIngest(t *testing.T) {
	srv, _ := testServerCfg(t, serve.GatewayConfig{})

	if _, _, xc := getCached(t, srv.URL+"/api/subjects"); xc != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", xc)
	}
	if _, _, xc := getCached(t, srv.URL+"/api/subjects"); xc != "hit" {
		t.Fatalf("second query X-Cache = %q, want hit", xc)
	}

	ingest := `{"docs":[{"title":"ZX900","date":"2004-03-02",
		"text":"The ZX900 takes excellent pictures. The ZX900 is disappointing in low light."}]}`
	resp, err := http.Post(srv.URL+"/api/ingest", "application/json", strings.NewReader(ingest))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		IDs        []string `json:"ids"`
		Facts      int      `json:"facts"`
		Generation uint64   `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(ack.IDs) != 1 || ack.Facts == 0 {
		t.Fatalf("ingest ack = %d %+v", resp.StatusCode, ack)
	}

	status, body, xc := getCached(t, srv.URL+"/api/subjects")
	if status != 200 || xc != "miss" {
		t.Fatalf("post-ingest query: status %d X-Cache %q, want 200 miss", status, xc)
	}
	if !strings.Contains(body, "zx900") {
		t.Fatalf("post-ingest response missing new subject: %.300s", body)
	}
	if _, _, xc := getCached(t, srv.URL+"/api/subjects"); xc != "hit" {
		t.Fatalf("re-query after invalidation X-Cache = %q, want hit", xc)
	}
	if _, page := get(t, srv.URL+"/subject?name=zx900"); !strings.Contains(page, "s0: The ZX900 takes excellent pictures.</li>") {
		t.Errorf("subject page lacks the ingested snippet: %.600s", page)
	}
	var rows []struct {
		Subject                   string
		Positive, Negative, Share int
	}
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	_, page := get(t, srv.URL+"/")
	for _, r := range rows {
		want := fmt.Sprintf(">%s</a></td>\n<td>%d</td><td>%d</td>\n<td><span class=\"bar\" style=\"width:%dpx\"></span> %d%%</td></tr>",
			template.HTMLEscapeString(r.Subject), r.Positive, r.Negative, r.Share, r.Share)
		if !strings.Contains(page, want) {
			t.Errorf("overview row for %q does not carry %+v", r.Subject, r)
		}
	}
	if n := strings.Count(page, "<tr><td>"); n != len(rows) || n == 0 {
		t.Errorf("overview lists %d subjects, /api/subjects %d", n, len(rows))
	}
}

func TestAPIIngestRejectsBadRequests(t *testing.T) {
	srv := testServer(t)
	if status, _ := get(t, srv.URL+"/api/ingest"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/ingest = %d, want 405", status)
	}
	resp, err := http.Post(srv.URL+"/api/ingest", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/api/ingest", "application/json", strings.NewReader(`{"docs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", resp.StatusCode)
	}
}

// TestAPIRateLimit: with refill disabled and a burst of 2, the third
// request from one tenant is 429 while another tenant still gets through.
func TestAPIRateLimit(t *testing.T) {
	srv, _ := testServerCfg(t, serve.GatewayConfig{TenantRate: -1, TenantBurst: 2})
	call := func(tenant string) int {
		req, err := http.NewRequest("GET", srv.URL+"/api/overview", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("x-tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 2; i++ {
		if status := call("acme"); status != 200 {
			t.Fatalf("request %d = %d", i, status)
		}
	}
	if status := call("acme"); status != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = %d, want 429", status)
	}
	if status := call("globex"); status != 200 {
		t.Fatalf("other tenant = %d, want 200", status)
	}
}

// TestHealthzDegraded: healthy answers 200; a degraded (read-only) store
// answers 503 with the reason — so a load balancer rotates the node out —
// while read queries keep working and ingest is refused with 503.
func TestHealthzDegraded(t *testing.T) {
	srv, backend := testServerCfg(t, serve.GatewayConfig{})
	status, body := get(t, srv.URL+"/healthz")
	if status != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy: %d %s", status, body)
	}

	backend.degraded = true
	backend.reason = "wal sync failure"
	status, body = get(t, srv.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz = %d, want 503", status)
	}
	if !strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, "wal sync failure") {
		t.Fatalf("degraded body missing reason: %s", body)
	}
	if status, _ := get(t, srv.URL+"/api/subjects"); status != 200 {
		t.Errorf("degraded read = %d, want 200 (read-only mode still serves)", status)
	}
	resp, err := http.Post(srv.URL+"/api/ingest", "application/json",
		strings.NewReader(`{"docs":[{"text":"x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded ingest = %d, want 503", resp.StatusCode)
	}
}
