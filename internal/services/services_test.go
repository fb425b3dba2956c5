package services

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"webfountain/internal/index"
	"webfountain/internal/serve"
	"webfountain/internal/store"
	"webfountain/internal/vinci"
)

func localSetup() (*vinci.Registry, *store.Store, *index.Index, *serve.Aggregates) {
	reg := vinci.NewRegistry()
	st := store.New(4)
	ix := index.New()
	agg := serve.NewAggregates()
	RegisterStore(reg, st)
	RegisterIndex(reg, func() *index.Index { return ix })
	RegisterSentiment(reg, agg)
	return reg, st, ix, agg
}

func TestStoreServiceRoundTrip(t *testing.T) {
	reg, _, _, _ := localSetup()
	c := StoreClient{C: vinci.NewLocalClient(reg)}

	e := &store.Entity{ID: "d1", Source: "review", Title: "T", Text: "The NR70 takes excellent pictures."}
	e.Annotate(store.Annotation{Miner: "spotter", Type: "spot", Key: "nr70", Sentence: 0, Start: 1, End: 2})
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != e.Text || len(got.Annotations) != 1 || got.Annotations[0].Key != "nr70" {
		t.Errorf("got %+v", got)
	}
	n, err := c.Count()
	if err != nil || n != 1 {
		t.Errorf("count = %d, %v", n, err)
	}
	if err := c.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("d1"); err == nil {
		t.Error("get after delete should fail")
	}
}

func TestStoreServiceErrors(t *testing.T) {
	reg, _, _, _ := localSetup()
	c := StoreClient{C: vinci.NewLocalClient(reg)}
	if err := c.Put(&store.Entity{}); err == nil {
		t.Error("put without ID should fail")
	}
	resp, _ := vinci.NewLocalClient(reg).Call(vinci.Request{Service: StoreService, Op: "bogus"})
	if resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Errorf("resp = %+v", resp)
	}
}

func TestStoreServiceIDsOp(t *testing.T) {
	st := store.New(1)
	for i := 0; i < 3; i++ {
		if err := st.Put(&store.Entity{ID: fmt.Sprintf("doc-%06d", i), Text: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	reg := vinci.NewRegistry()
	RegisterStore(reg, st)
	sc := StoreClient{C: vinci.NewLocalClient(reg)}
	ids, err := sc.IDs()
	if err != nil || len(ids) != 3 || ids[0] != "doc-000000" {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
}

func TestIndexService(t *testing.T) {
	reg, _, ix, _ := localSetup()
	ix.Add("d1", strings.Fields("excellent camera zoom"))
	ix.Add("d2", strings.Fields("terrible camera menu"))
	ix.Add("d3", strings.Fields("battery life is short"))
	c := IndexClient{C: vinci.NewLocalClient(reg)}

	ids, err := c.Search("all", "camera")
	if err != nil || len(ids) != 2 {
		t.Errorf("all camera = %v, %v", ids, err)
	}
	ids, err = c.Search("any", "zoom", "menu")
	if err != nil || len(ids) != 2 {
		t.Errorf("any = %v, %v", ids, err)
	}
	ids, err = c.Search("phrase", "battery", "life")
	if err != nil || len(ids) != 1 || ids[0] != "d3" {
		t.Errorf("phrase = %v, %v", ids, err)
	}
	ids, err = c.Search("all", "nomatch")
	if err != nil || ids != nil {
		t.Errorf("empty result = %v, %v", ids, err)
	}
	df, err := c.DocFreq("camera")
	if err != nil || df != 2 {
		t.Errorf("docfreq = %d, %v", df, err)
	}
	if _, err := c.Search("bogusmode", "x"); err == nil {
		t.Error("bad mode should fail")
	}
	if _, err := c.Search("all"); err == nil {
		t.Error("empty terms should fail")
	}
}

func TestSentimentService(t *testing.T) {
	reg, _, _, agg := localSetup()
	agg.Apply([]serve.Fact{
		{Subject: "nr70", Positive: true, Doc: "d1", Sentence: 0, Snippet: "great"},
		{Subject: "nr70", Positive: false, Doc: "d2", Sentence: 3, Snippet: "bad"},
	})
	c := SentimentClient{C: vinci.NewLocalClient(reg)}

	entries, err := c.Query("NR70")
	if err != nil || len(entries) != 2 {
		t.Fatalf("entries = %+v, %v", entries, err)
	}
	if entries[0].Snippet != "great" || entries[1].Polarity != "-" {
		t.Errorf("entries = %+v", entries)
	}
	pos, neg, err := c.Counts("nr70")
	if err != nil || pos != 1 || neg != 1 {
		t.Errorf("counts = %d/%d, %v", pos, neg, err)
	}
	if _, err := c.Query(""); err == nil {
		t.Error("empty subject should fail")
	}
}

// TestServicesOverTCP exercises the full remote path: the same typed
// clients over a real network connection.
func TestServicesOverTCP(t *testing.T) {
	reg, _, ix, agg := localSetup()
	ix.Add("d1", strings.Fields("remote access works"))
	agg.Apply([]serve.Fact{{Subject: "platform", Positive: true, Doc: "d1", Snippet: "works"}})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := vinci.NewServer(reg)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	conn, err := vinci.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sc := StoreClient{C: conn}
	if err := sc.Put(&store.Entity{ID: "remote", Text: "hello over tcp"}); err != nil {
		t.Fatal(err)
	}
	got, err := sc.Get("remote")
	if err != nil || got.Text != "hello over tcp" {
		t.Errorf("got %+v, %v", got, err)
	}

	icl := IndexClient{C: conn}
	ids, err := icl.Search("all", "remote")
	if err != nil || len(ids) != 1 {
		t.Errorf("search = %v, %v", ids, err)
	}

	scl := SentimentClient{C: conn}
	pos, neg, err := scl.Counts("platform")
	if err != nil || pos != 1 || neg != 0 {
		t.Errorf("counts = %d/%d, %v", pos, neg, err)
	}
	entries, err := scl.Query("platform")
	if err != nil || len(entries) != 1 || entries[0].Snippet != "works" {
		t.Errorf("entries = %+v, %v", entries, err)
	}
}
