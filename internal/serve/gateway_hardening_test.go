package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// panicBackend panics on View — the poisoned-request shape the
// gateway's failure envelope must contain.
type panicBackend struct {
	*fakeBackend
	armed bool
}

func (b *panicBackend) View() *View {
	if b.armed {
		panic("poisoned snapshot")
	}
	return b.fakeBackend.View()
}

// TestGatewayPanicRecovery: a handler panic becomes a 500 JSON error
// and the server keeps answering afterwards.
func TestGatewayPanicRecovery(t *testing.T) {
	b := &panicBackend{fakeBackend: newFakeBackend(), armed: true}
	srv := testGateway(t, b, GatewayConfig{})

	resp, body := get(t, srv.URL+"/api/subjects")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked request: status %d, want 500", resp.StatusCode)
	}
	var e map[string]string
	if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e["error"], "internal error") {
		t.Fatalf("panicked request body %q, want a JSON internal error", body)
	}

	b.armed = false
	resp, _ = get(t, srv.URL+"/api/subjects")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d, want 200", resp.StatusCode)
	}
}

// TestGatewayServeStaleHeader: a degraded store keeps answering reads
// from the last-good snapshot, flagged X-Stale so clients know the data
// stopped moving. Healthy reads carry no flag.
func TestGatewayServeStaleHeader(t *testing.T) {
	b := newFakeBackend()
	srv := testGateway(t, b, GatewayConfig{})

	resp, healthy := get(t, srv.URL+"/api/subjects")
	if h := resp.Header.Get("X-Stale"); h != "" {
		t.Fatalf("healthy read carries X-Stale %q", h)
	}

	b.degraded, b.reason = true, "disk failure"
	resp, stale := get(t, srv.URL+"/api/subjects")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: status %d, want 200 (serve stale, not error)", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Stale"); h != "store-degraded" {
		t.Fatalf("degraded read X-Stale %q, want store-degraded", h)
	}
	if stale != healthy {
		t.Error("degraded read did not serve the last-good snapshot")
	}
}

// TestGatewayIngestBodyLimit: an oversized ingest body is refused with
// 413 before the backend sees it.
func TestGatewayIngestBodyLimit(t *testing.T) {
	b := newFakeBackend()
	srv := testGateway(t, b, GatewayConfig{MaxIngestBytes: 128})

	small := `{"docs":[{"title":"ok","text":"hi"}]}`
	resp, err := http.Post(srv.URL+"/api/ingest", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", resp.StatusCode)
	}

	big := fmt.Sprintf(`{"docs":[{"title":"big","text":%q}]}`, strings.Repeat("x", 4096))
	resp, err = http.Post(srv.URL+"/api/ingest", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if b.ingests != 1 {
		t.Errorf("backend saw %d ingests, want 1 (the oversized body must not reach it)", b.ingests)
	}
}

// deadlineBackend blocks Ingest until the request deadline fires, then
// reports an acked prefix with a DeadlineExceeded error — the
// ServingTier mid-batch-expiry shape.
type deadlineBackend struct {
	*fakeBackend
	sawDeadline bool
}

func (b *deadlineBackend) Ingest(ctx context.Context, docs []Doc) ([]string, int, error) {
	if _, ok := ctx.Deadline(); ok {
		b.sawDeadline = true
	}
	<-ctx.Done()
	return []string{"acked-1"}, 0, fmt.Errorf("ingest stopped: %w", ctx.Err())
}

// TestGatewayDeadlinePropagatesToIngest: RequestTimeout installs a
// deadline on the backend context; an expiry mid-batch is answered 504
// with the acked prefix in the body, not a dropped connection.
func TestGatewayDeadlinePropagatesToIngest(t *testing.T) {
	b := &deadlineBackend{fakeBackend: newFakeBackend()}
	srv := testGateway(t, b, GatewayConfig{RequestTimeout: 50 * time.Millisecond})

	resp, err := http.Post(srv.URL+"/api/ingest", "application/json",
		strings.NewReader(`{"docs":[{"title":"slow","text":"hi"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if !b.sawDeadline {
		t.Error("backend context carried no deadline")
	}
	var out struct {
		Error string   `json:"error"`
		IDs   []string `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.IDs) != 1 || out.IDs[0] != "acked-1" {
		t.Errorf("504 body ids %v, want the acked prefix [acked-1]", out.IDs)
	}
	if out.Error == "" {
		t.Error("504 body carries no error description")
	}
}

// TestGatewayExpiredDeadlineIsNotCached: a read whose deadline has
// already expired is answered 504, and its render is never stored — the
// next request for the same subject is a miss that renders the entries,
// not a hit on what the expired request rendered.
func TestGatewayExpiredDeadlineIsNotCached(t *testing.T) {
	g := NewGateway(newFakeBackend(), GatewayConfig{})
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/sentiment?name=nr70", nil).WithContext(ctx))
		return rec
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if rec := serve(expired); rec.Code != http.StatusGatewayTimeout || rec.Header().Get("X-Cache") != "" {
		t.Fatalf("expired request: status %d, X-Cache %q, body %s; want an uncached 504",
			rec.Code, rec.Header().Get("X-Cache"), rec.Body)
	}
	for _, want := range []string{"miss", "hit"} {
		rec := serve(context.Background())
		var entries []Entry
		if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
			t.Fatalf("%s: %v in %s", want, err, rec.Body)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want || len(entries) != 2 {
			t.Errorf("request after the expired one: status %d, X-Cache %q, %d entries; want 200 %s with nr70's 2 entries",
				rec.Code, rec.Header().Get("X-Cache"), len(entries), want)
		}
	}
}

// cutBackend acks a fixed prefix and fails the rest of the batch with
// err — a batch cut short by a store fault or an expired deadline.
type cutBackend struct {
	*fakeBackend
	acked []string
	err   error
}

func (b *cutBackend) Ingest(context.Context, []Doc) ([]string, int, error) {
	return b.acked, len(b.acked), b.err
}

// TestGatewayIngestErrorCarriesAckedPrefix: whatever cut the batch, the
// error response names the documents that were acked and the ingest
// counter counts them — a client that cannot see the prefix resends the
// whole batch. (A bare 500 used to drop the prefix, and neither error
// path counted it.)
func TestGatewayIngestErrorCarriesAckedPrefix(t *testing.T) {
	for _, c := range []struct {
		name   string
		acked  []string
		err    error
		status int
	}{
		{"store fault", []string{"d1", "d2"}, errors.New("ingest d3: injected disk failure"), http.StatusInternalServerError},
		{"deadline", []string{"d1", "d2"}, fmt.Errorf("ingest stopped before d3: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"nothing acked", nil, errors.New("ingest d1: injected disk failure"), http.StatusInternalServerError},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := testGateway(t, &cutBackend{fakeBackend: newFakeBackend(), acked: c.acked, err: c.err}, GatewayConfig{})
			before := gwIngested.Value()
			resp, err := http.Post(srv.URL+"/api/ingest", "application/json",
				strings.NewReader(`{"docs":[{"id":"d1","text":"a"},{"id":"d2","text":"b"},{"id":"d3","text":"c"},{"id":"d4","text":"d"}]}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			var out map[string]json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out["error"]) == 0 {
				t.Error("error response carries no error description")
			}
			var ids []string
			if raw, ok := out["ids"]; ok != (len(c.acked) > 0) {
				t.Errorf("body has ids = %v with %d acked", ok, len(c.acked))
			} else if ok {
				if err := json.Unmarshal(raw, &ids); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(ids, c.acked) {
				t.Errorf("body ids %v, want the acked prefix %v", ids, c.acked)
			}
			if got := gwIngested.Value() - before; got != int64(len(c.acked)) {
				t.Errorf("serve.gateway.ingest.docs moved by %d, want %d", got, len(c.acked))
			}
		})
	}
}

// TestGatewayDeadlineHeaderTightensOnly: x-deadline-ms can shorten the
// configured budget but never extend it.
func TestGatewayDeadlineHeaderTightensOnly(t *testing.T) {
	g := NewGateway(newFakeBackend(), GatewayConfig{RequestTimeout: time.Second})
	req, _ := http.NewRequest("GET", "/api/subjects", nil)
	if d := g.deadlineFor(req); d != time.Second {
		t.Errorf("no header: %v, want 1s", d)
	}
	req.Header.Set("x-deadline-ms", "100")
	if d := g.deadlineFor(req); d != 100*time.Millisecond {
		t.Errorf("tightening header: %v, want 100ms", d)
	}
	req.Header.Set("x-deadline-ms", "5000")
	if d := g.deadlineFor(req); d != time.Second {
		t.Errorf("loosening header: %v, want the configured 1s", d)
	}
	req.Header.Set("x-deadline-ms", "garbage")
	if d := g.deadlineFor(req); d != time.Second {
		t.Errorf("malformed header: %v, want the configured 1s", d)
	}

	unbounded := NewGateway(newFakeBackend(), GatewayConfig{})
	req, _ = http.NewRequest("GET", "/api/subjects", nil)
	if d := unbounded.deadlineFor(req); d != 0 {
		t.Errorf("no config, no header: %v, want 0", d)
	}
	req.Header.Set("x-deadline-ms", "100")
	if d := unbounded.deadlineFor(req); d != 100*time.Millisecond {
		t.Errorf("header only: %v, want 100ms", d)
	}
}

// TestGatewayDeadlineHeaderNeverLoosens: no x-deadline-ms value — in
// particular one that overflows time.Duration when scaled to
// nanoseconds — may drop or extend the configured RequestTimeout.
func TestGatewayDeadlineHeaderNeverLoosens(t *testing.T) {
	const timeout = time.Second
	g := NewGateway(newFakeBackend(), GatewayConfig{RequestTimeout: timeout})
	for _, h := range []string{
		"9223372036855",        // ms → ns overflows to a negative duration
		"9223372036854775807",  // MaxInt64
		"99999999999999999999", // does not fit int64 at all
		"-5", "0", "+5000", "5s", " 100", "1e3", "",
	} {
		req, _ := http.NewRequest("GET", "/api/subjects", nil)
		req.Header.Set("x-deadline-ms", h)
		if d := g.deadlineFor(req); d <= 0 || d > timeout {
			t.Errorf("x-deadline-ms %q: budget %v, want within (0, %v]", h, d, timeout)
		}
	}
	req, _ := http.NewRequest("GET", "/api/subjects", nil)
	req.Header.Set("x-deadline-ms", "+5")
	if d := g.deadlineFor(req); d != 5*time.Millisecond {
		t.Errorf("x-deadline-ms +5: budget %v, want the tighter 5ms", d)
	}
}
