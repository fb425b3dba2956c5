//go:build !race

package webfountain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"webfountain/internal/serve"
)

// TestIngestRetainsNoRequestBody gates what a durable serving node keeps
// of the requests it acks: the store keeps where each record landed in
// its log, the tier copies the few strings its entries keep, so once a
// request is acked nothing holds its body. A durable tier ingests 2 016
// ingest_bulk-shaped documents (bulkTexts, about 6.6 KB each) through
// the gateway in 32-document requests, and the live heap after a GC may
// grow by at most 3 KB per document: the served entries, their snippet
// sentences and a keydir slot. Where the store kept each entity, cut
// from its request's body, a document kept 10.6 KB. The test holds its
// own request bodies throughout (they were allocated before the first
// reading), so only what the server side keeps is counted, and keeps
// the gateway, and with it the tier, live past the second reading; the
// race detector's shadow memory would blur the count, hence the build
// tag.
func TestIngestRetainsNoRequestBody(t *testing.T) {
	const (
		docs   = 2016
		batch  = 32
		perDoc = 3 << 10
	)
	p, err := OpenPlatform(PlatformConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := NewSentimentMiner(MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier, _, err := RecoverServingTier(p, m, ServingTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServingGateway(tier, ServingGatewayConfig{TenantRate: 1e9, TenantBurst: 1 << 30})
	texts := bulkTexts(docs + batch)
	var bodies [][]byte
	for i := 0; i < len(texts); i += batch {
		var req struct {
			Docs []serve.Doc `json:"docs"`
		}
		for k, text := range texts[i : i+batch] {
			req.Docs = append(req.Docs, serve.Doc{Source: "review", Title: fmt.Sprintf("bulk %d", i+k), Date: "2004-03-02", Text: text})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	texts = nil
	post := func(body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", w.Code, w.Body)
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	post(bodies[0]) // warm: the pools, the arenas and the buffers kept between requests
	before := live()
	for _, body := range bodies[1:] {
		post(body)
	}
	after := live()
	runtime.KeepAlive(bodies)
	runtime.KeepAlive(h) // the tier and its served entries count, so they must be live at the reading
	if n := p.NumEntities(); n != docs+batch {
		t.Fatalf("%d documents stored, want %d", n, docs+batch)
	}
	grew := float64(int64(after)-int64(before)) / docs
	if grew > perDoc {
		t.Errorf("live heap grew by %.0f B per ingested document, ceiling %d", grew, perDoc)
	}
	t.Logf("live heap grew by %.0f B per document over %d documents (ceiling %d)", grew, docs, perDoc)
}
