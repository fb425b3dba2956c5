package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/services"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
	"webfountain/internal/vinci"
)

// TestNodeServesTheOnePipeline boots a node as wfnode serve does and
// drives its Vinci services in process: documents put through the store
// service are mined, indexed and served, so after the puts the sentiment
// service answers every subject exactly as the tier's View and
// wfserver's /api/sentiment do, the index service finds a put document
// until it is deleted, and every count agrees with the platform.
func TestNodeServesTheOnePipeline(t *testing.T) {
	platform, tier, err := boot("camera", 40, 1, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()
	c := vinci.NewLocalClient(registry("wfnode@test", platform, tier))
	sc := services.StoreClient{C: c}
	facts := tier.View().Facts()

	remote := corpus.DigitalCameraReviews(99, 20)
	for _, d := range remote {
		e := &store.Entity{ID: "remote-" + d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text()}
		if err := sc.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Put(&store.Entity{Text: "The NR70 is great."}); err == nil {
		t.Error("a put without an ID must fail")
	}
	if n := platform.NumEntities(); n != 60 {
		t.Fatalf("%d documents after 20 puts over 40 seeded, want 60", n)
	}
	if got := tier.View().Facts(); got <= facts {
		t.Fatalf("the puts added no served facts: %d before, %d after", facts, got)
	}

	gw := webfountain.NewServingGateway(tier, webfountain.ServingGatewayConfig{TenantBurst: 1 << 20, TenantRate: 1 << 20})
	sent := services.SentimentClient{C: c}
	v := tier.View()
	for _, s := range v.Subjects() {
		pos, neg, err := sent.Counts(s)
		if want := v.Counts(s); err != nil || pos != want.Positive || neg != want.Negative {
			t.Errorf("%q: service counts %d+/%d- (%v), View %d+/%d-", s, pos, neg, err, want.Positive, want.Negative)
		}
		entries, err := sent.Query(s)
		if err != nil || !reflect.DeepEqual(entries, v.Entries(s)) {
			t.Errorf("%q: service entries differ from the View's (%v)", s, err)
		}
		resp, err := c.Call(vinci.Request{Service: services.SentimentService, Op: "query", Params: map[string]string{"subject": s}})
		if err != nil || !resp.OK {
			t.Fatalf("%q: query: %v %s", s, err, resp.Error)
		}
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/sentiment?name="+url.QueryEscape(s), nil))
		// The gateway ends its body with a newline.
		if rec.Code != http.StatusOK || resp.Fields["entries"]+"\n" != rec.Body.String() {
			t.Errorf("%q: service JSON %s, /api/sentiment %d %s", s, resp.Fields["entries"], rec.Code, rec.Body.String())
		}
	}

	// A put document is searchable, and a remote delete takes it out of
	// the index and the store.
	id := "remote-" + remote[0].ID
	var words []string
	for _, tok := range tokenize.New().Tokenize(remote[0].Text())[:6] {
		words = append(words, tok.Text)
	}
	ic := services.IndexClient{C: c}
	if ids, err := ic.Search("phrase", words...); err != nil || !slices.Contains(ids, id) {
		t.Fatalf("phrase %q: %v (%v), want %s among them", strings.Join(words, " "), ids, err, id)
	}
	if err := sc.Delete(id); err != nil {
		t.Fatal(err)
	}
	if ids, err := ic.Search("phrase", words...); err != nil || slices.Contains(ids, id) {
		t.Errorf("phrase after delete: %v (%v), want %s gone", ids, err, id)
	}
	if _, err := sc.Get(id); err == nil {
		t.Errorf("get %s after delete succeeded", id)
	}

	n := platform.NumEntities()
	count, err := sc.Count()
	if err != nil || count != n {
		t.Errorf("count = %d (%v), platform holds %d", count, err, n)
	}
	ids, err := sc.IDs()
	if err != nil || len(ids) != n {
		t.Errorf("ids: %d (%v), platform holds %d", len(ids), err, n)
	}
	st, err := services.HealthClient{C: c}.Status()
	if err != nil || st.Entities != n {
		t.Errorf("health: %d entities (%v), platform holds %d", st.Entities, err, n)
	}
}
