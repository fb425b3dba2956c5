package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// fakeBackend is an in-memory Backend for gateway tests: ingest mines
// one positive fact per document about the document's title.
type fakeBackend struct {
	agg      *Aggregates
	docs     int
	degraded bool
	reason   string
	ingests  int
}

func newFakeBackend() *fakeBackend {
	b := &fakeBackend{agg: NewAggregates()}
	b.seed("nr70", "battery life", "2004-07-02", true)
	b.seed("nr70", "pictures", "2004-08-11", false)
	b.seed("clie", "", "2004-07-20", true)
	b.docs = 3
	return b
}

func (b *fakeBackend) seed(subject, feature, date string, pos bool) {
	b.agg.Apply([]Fact{{Subject: subject, Feature: feature, Date: date, Positive: pos,
		Doc: fmt.Sprintf("doc-%06d", b.agg.View().Counts(subject).Total()), Snippet: "a snippet about " + subject}})
}

func (b *fakeBackend) View() *View              { return b.agg.View() }
func (b *fakeBackend) Degraded() (bool, string) { return b.degraded, b.reason }
func (b *fakeBackend) NumDocs() int             { return b.docs }

func (b *fakeBackend) Ingest(_ context.Context, docs []Doc) ([]string, int, error) {
	b.ingests++
	var facts []Fact
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = fmt.Sprintf("ingested-%d-%d", b.ingests, i)
		facts = append(facts, Fact{Subject: d.Title, Date: d.Date, Positive: true})
		b.docs++
	}
	b.agg.Apply(facts)
	return ids, len(facts), nil
}

func testGateway(t *testing.T, b Backend, cfg GatewayConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewGateway(b, cfg))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (*http.Response, string) {
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
	return resp, string(body)
}

// TestGatewaySubjectsSchema pins the /api/subjects wire format: rows
// carry exactly the lower-case keys subject/positive/negative/share.
// This is the compat contract the JSON-tag fix established — a rename
// or a dropped tag fails here before it breaks a dashboard.
func TestGatewaySubjectsSchema(t *testing.T) {
	srv := testGateway(t, newFakeBackend(), GatewayConfig{})
	resp, body := get(t, srv.URL+"/api/subjects")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("bad json: %v (%s)", err, body)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		want := []string{"negative", "positive", "share", "subject"}
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Fatalf("row keys = %v, want %v (schema compat)", keys, want)
		}
	}
	// Share is rounded, not floored: nr70 is 1/2 = 50.
	if !strings.Contains(body, `"share":50`) {
		t.Errorf("expected rounded share 50 in %s", body)
	}
}

func TestGatewaySentiment(t *testing.T) {
	srv := testGateway(t, newFakeBackend(), GatewayConfig{})
	resp, body := get(t, srv.URL+"/api/sentiment?name=nr70")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var entries []Entry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Polarity != "+" || entries[0].Subject != "nr70" {
		t.Fatalf("entry = %+v", entries[0])
	}
	// Unknown subject: empty array, not null, still 200.
	if _, body := get(t, srv.URL+"/api/sentiment?name=nosuch"); strings.TrimSpace(body) != "[]" {
		t.Errorf("unknown subject body = %q, want []", body)
	}
	if resp, _ := get(t, srv.URL+"/api/sentiment"); resp.StatusCode != 400 {
		t.Errorf("missing name = %d, want 400", resp.StatusCode)
	}
}

func TestGatewayTrendAndAspects(t *testing.T) {
	srv := testGateway(t, newFakeBackend(), GatewayConfig{})
	resp, body := get(t, srv.URL+"/api/trend?name=nr70")
	if resp.StatusCode != 200 {
		t.Fatalf("trend status = %d", resp.StatusCode)
	}
	var trend struct {
		Subject string   `json:"subject"`
		Series  []Bucket `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &trend); err != nil {
		t.Fatalf("bad trend json: %v", err)
	}
	if len(trend.Series) != 2 || trend.Series[0].Month != "2004-07" || trend.Series[1].Month != "2004-08" {
		t.Fatalf("series = %+v", trend.Series)
	}
	_, body = get(t, srv.URL+"/api/aspects?name=nr70")
	var aspects struct {
		Aspects []AspectCount `json:"aspects"`
	}
	if err := json.Unmarshal([]byte(body), &aspects); err != nil {
		t.Fatalf("bad aspects json: %v", err)
	}
	if len(aspects.Aspects) != 2 {
		t.Fatalf("aspects = %+v", aspects.Aspects)
	}
	for _, ep := range []string{"/api/trend", "/api/aspects"} {
		if resp, _ := get(t, srv.URL+ep); resp.StatusCode != 400 {
			t.Errorf("%s without name = %d, want 400", ep, resp.StatusCode)
		}
	}
}

func TestGatewayOverview(t *testing.T) {
	srv := testGateway(t, newFakeBackend(), GatewayConfig{})
	_, body := get(t, srv.URL+"/api/overview")
	var ov struct {
		Documents  int    `json:"documents"`
		Subjects   int    `json:"subjects"`
		Facts      int    `json:"facts"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(body), &ov); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if ov.Documents != 3 || ov.Subjects != 2 || ov.Facts != 3 || ov.Generation != 3 {
		t.Fatalf("overview = %+v", ov)
	}
}

// TestGatewayCacheHitMissAndIngestInvalidation is the serving tier's
// core freshness contract: the second identical query is a cache hit,
// and a query after an ingest batch is a miss that reflects the new
// facts — a post-ingest response is never staler than one batch.
func TestGatewayCacheHitMissAndIngestInvalidation(t *testing.T) {
	b := newFakeBackend()
	srv := testGateway(t, b, GatewayConfig{})

	resp, body1 := get(t, srv.URL+"/api/subjects")
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first query X-Cache = %q", h)
	}
	resp, body2 := get(t, srv.URL+"/api/subjects")
	if h := resp.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("second query X-Cache = %q", h)
	}
	if body1 != body2 {
		t.Fatal("cache hit served different bytes")
	}

	// Ingest a batch minting a brand-new subject.
	post, err := http.Post(srv.URL+"/api/ingest", "application/json",
		strings.NewReader(`{"docs":[{"title":"talon","date":"2004-09-09","text":"the talon is great"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != 200 {
		t.Fatalf("ingest status = %d", post.StatusCode)
	}
	var ack struct {
		IDs        []string `json:"ids"`
		Facts      int      `json:"facts"`
		Generation uint64   `json:"generation"`
	}
	if err := json.NewDecoder(post.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if len(ack.IDs) != 1 || ack.Facts != 1 {
		t.Fatalf("ingest ack = %+v", ack)
	}

	// The very next query must re-render (miss) and include the new
	// subject: no response staler than the ingest batch.
	resp, body3 := get(t, srv.URL+"/api/subjects")
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("post-ingest query X-Cache = %q, stale response served", h)
	}
	if !strings.Contains(body3, `"subject":"talon"`) {
		t.Fatalf("post-ingest subjects missing new subject: %s", body3)
	}
	// And the one after that is a hit again, at the new generation.
	if resp, _ := get(t, srv.URL+"/api/subjects"); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("re-query after invalidation did not cache")
	}
}

func TestGatewayIngestValidation(t *testing.T) {
	srv := testGateway(t, newFakeBackend(), GatewayConfig{})
	if resp, _ := get(t, srv.URL+"/api/ingest"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest = %d, want 405", resp.StatusCode)
	}
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/api/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := post(`not json`); s != 400 {
		t.Errorf("bad body = %d, want 400", s)
	}
	if s := post(`{"docs":[]}`); s != 400 {
		t.Errorf("empty batch = %d, want 400", s)
	}
}

// TestGatewayRateLimit pins the 429 path: a tenant's bucket empties
// after its burst and other tenants are unaffected.
func TestGatewayRateLimit(t *testing.T) {
	srv := testGateway(t, newFakeBackend(), GatewayConfig{TenantRate: -1, TenantBurst: 2})
	do := func(tenant string) int {
		req, _ := http.NewRequest("GET", srv.URL+"/api/overview", nil)
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
		if s := do("acme"); s != 200 {
			t.Fatalf("request %d = %d within burst", i, s)
		}
	}
	if s := do("acme"); s != http.StatusTooManyRequests {
		t.Fatalf("over-burst request = %d, want 429", s)
	}
	// Another tenant and the default bucket still serve.
	if s := do("globex"); s != 200 {
		t.Fatalf("other tenant = %d", s)
	}
	if s := do(""); s != 200 {
		t.Fatalf("default tenant = %d", s)
	}
	// /healthz is exempt: probes must not burn tenant tokens.
	if resp, _ := get(t, srv.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz limited: %d", resp.StatusCode)
	}
}

// TestGatewayHealthzDegraded pins the 503 semantics: a degraded
// (read-only) store fails the health probe with the reason, and the
// ingest endpoint refuses writes, while reads keep serving.
func TestGatewayHealthzDegraded(t *testing.T) {
	b := newFakeBackend()
	srv := testGateway(t, b, GatewayConfig{})
	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy probe = %d %s", resp.StatusCode, body)
	}
	b.degraded, b.reason = true, "wal append failed"
	resp, body = get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded probe = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, "wal append failed") {
		t.Fatalf("degraded body = %s", body)
	}
	// Writes are refused; reads keep working.
	post, err := http.Post(srv.URL+"/api/ingest", "application/json",
		strings.NewReader(`{"docs":[{"text":"x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest = %d, want 503", post.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/api/subjects"); resp.StatusCode != 200 {
		t.Fatalf("degraded read = %d, want 200", resp.StatusCode)
	}
}
