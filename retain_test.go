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
// of the documents it serves, after ingest and after a restart: the
// store keeps where each record landed in its log, and the aggregates
// copy the few strings their entries keep, so once a request is acked
// nothing holds its body, and a recovery pins no record it decoded. A
// durable tier ingests 2 016 ingest_bulk-shaped documents (bulkTexts,
// about 6.6 KB each) through the gateway in 32-document requests, and
// the live heap after a GC may grow by at most 1 365 B per document:
// the packed served entries, their document IDs and snippet sentences,
// and a keydir slot. That is 1 137 B measured, plus a fifth; with an
// entry of 88 bytes and its strings in a per-request copy, a document
// kept 2.3 KB, and where the store kept each entity, cut from its
// request's body, 10.6 KB. Then the platform is closed and the same data
// directory reopened and recovered, and the live heap it adds may not
// pass the same ceiling per document. The test holds its own request
// bodies throughout (they were allocated before the first reading), so
// only what the server side keeps is counted, and keeps the gateway,
// and with it the tier, live past each reading; the race detector's
// shadow memory would blur the count, hence the build tag.
func TestIngestRetainsNoRequestBody(t *testing.T) {
	const (
		docs   = 2016
		batch  = 32
		perDoc = 1365
	)
	dir := t.TempDir()
	p, err := OpenPlatform(PlatformConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
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
	check := func(what string, before, after uint64, n int) {
		grew := float64(int64(after)-int64(before)) / float64(n)
		if grew > perDoc {
			t.Errorf("%s: live heap grew by %.0f B per document, ceiling %d", what, grew, perDoc)
		}
		t.Logf("%s: live heap grew by %.0f B per document over %d documents (ceiling %d)", what, grew, n, perDoc)
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
	check("ingest", before, after, docs)
	want := tier.View()
	wantFacts, wantEntries := want.Facts(), entryDump(want)

	// The restart: the whole tier is recovered, so the reading before it
	// holds no platform at all.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	bodies, h, tier, p, want = nil, nil, nil, nil, nil
	before = live()
	p2, err := OpenPlatform(PlatformConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	tier2, rec, err := RecoverServingTier(p2, m, ServingTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	after = live()
	runtime.KeepAlive(tier2)
	if rec.FoldedDocs != docs+batch || tier2.View().Facts() != wantFacts {
		t.Fatalf("recovery %+v, %d facts; want %d documents folded, %d facts", rec, tier2.View().Facts(), docs+batch, wantFacts)
	}
	check("restart", before, after, docs+batch)
	if entryDump(tier2.View()) != wantEntries {
		t.Error("the restart serves different entries")
	}
}
