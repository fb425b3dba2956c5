package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"webfountain/internal/corpus"
)

// bulkBody serializes n documents the way a bulk producer does: each
// joins five alternating camera and music reviews (≈ 6 KB), marshalled
// by encoding/json.
func bulkBody(tb testing.TB, seed int64, n int) []byte {
	tb.Helper()
	camera := corpus.DigitalCameraReviews(seed, (5*n+1)/2)
	music := corpus.MusicReviews(seed+1, (5*n+1)/2)
	docs := make([]Doc, n)
	for i := range docs {
		var parts []string
		for k := 5 * i; k < 5*(i+1); k++ {
			d := &camera[k/2]
			if k%2 == 1 {
				d = &music[k/2]
			}
			parts = append(parts, d.Text())
		}
		first := &camera[5*i/2]
		docs[i] = Doc{Source: first.Source, Title: first.Title, Date: first.Date, Text: strings.Join(parts, " ")}
	}
	body, err := json.Marshal(struct {
		Docs []Doc `json:"docs"`
	}{docs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// jsonDecode is the oracle: what encoding/json's Decoder yields for an
// ingest body.
func jsonDecode(body []byte) ([]Doc, error) {
	var req struct {
		Docs []Doc `json:"docs"`
	}
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Docs, err
}

// TestDecodeIngestMatchesEncodingJSON: a bulk body and hand-written
// bodies decode to what encoding/json decodes, document for document,
// and fail where it fails.
func TestDecodeIngestMatchesEncodingJSON(t *testing.T) {
	bodies := [][]byte{bulkBody(t, 7, 32)}
	for _, s := range ingestBodySeeds {
		bodies = append(bodies, []byte(s))
	}
	for _, body := range bodies {
		if hasRepeatedDocsKey(body) {
			continue
		}
		got, gotErr := decodeIngest(string(body))
		want, wantErr := jsonDecode(body)
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("body %.80q: error %v, encoding/json %v", body, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("body %.80q: docs\n got %q\nwant %q", body, got, want)
		}
	}
}

// TestDecodeIngestNestingLimit: nesting is refused past 10 000 levels,
// as encoding/json refuses it, wherever the deep value sits: under an
// unknown top-level key, under an unknown document key, and as a
// wrong-typed document.
func TestDecodeIngestNestingLimit(t *testing.T) {
	nest := func(open, close string, n int) string {
		return strings.Repeat(open, n) + strings.Repeat(close, n)
	}
	for _, depth := range []int{9999, 10000, 10001} {
		for _, tc := range []struct {
			name string
			body string
			ok   bool // the body is fine apart from its depth
		}{
			// The top-level object is level 1.
			{"top-level key, arrays", `{"docs":[{"text":"a"}],"x":` + nest("[", "]", depth-1) + `}`, true},
			{"top-level key, objects", `{"x":` + strings.Repeat(`{"k":`, depth-2) + `{}` + strings.Repeat(`}`, depth-2) + `,"docs":[{"text":"a"}]}`, true},
			// A document object is level 3.
			{"document key", `{"docs":[{"text":"a","x":` + nest("[", "]", depth-3) + `}]}`, true},
			{"wrong-typed document", `{"docs":[` + nest("[", "]", depth-2) + `]}`, false},
		} {
			want := tc.ok && depth <= maxNestingDepth
			_, err := decodeIngest(tc.body)
			if (err == nil) != want {
				t.Errorf("%s, depth %d: err %v, want ok=%v", tc.name, depth, err, want)
			}
			_, jerr := jsonDecode([]byte(tc.body))
			if (err == nil) != (jerr == nil) {
				t.Errorf("%s, depth %d: err %v, encoding/json %v", tc.name, depth, err, jerr)
			}
			g := NewGateway(newFakeBackend(), GatewayConfig{TenantRate: 1e9, TenantBurst: 1 << 30})
			w := httptest.NewRecorder()
			g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/ingest", strings.NewReader(tc.body)))
			if wantCode := map[bool]int{true: 200, false: 400}[want]; w.Code != wantCode {
				t.Errorf("%s, depth %d: status %d, want %d", tc.name, depth, w.Code, wantCode)
			}
		}
	}
}

// TestReadIngestBody: the body is read whole up to the limit and
// refused past it, however the declared length lies.
func TestReadIngestBody(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 1000)
	for _, tc := range []struct {
		n, declared, limit int64
		tooLarge           bool
	}{
		{1000, 1000, 1000, false},
		{1000, 1000, 999, true},
		{1000, -1, 0, false},       // no declared length, no limit
		{1000, 10, 2000, false},    // declared too short: the buffer grows
		{1000, 1 << 40, 999, true}, // declared huge: sized by the limit
		{1000, 1 << 40, 5000, false},
		{0, 0, 10, false},
	} {
		got, err := readIngestBody(nil, bytes.NewReader(body[:tc.n]), tc.declared, tc.limit)
		if tc.tooLarge {
			if err != errTooLarge {
				t.Errorf("%+v: err %v, want errTooLarge", tc, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, body[:tc.n]) {
			t.Errorf("%+v: got %d bytes, err %v", tc, len(got), err)
		}
		if tc.limit > 0 && int64(cap(got)) > tc.limit+1 {
			t.Errorf("%+v: buffer capacity %d beyond the limit", tc, cap(got))
		}
	}
}

// TestIngestBodyBuffersBounded: the gateway reads each body into a
// pooled buffer, and a body over maxPooledBuf leaves no buffer that
// large in the pool. The documents it decodes never alias the buffer: a
// later request that overwrites it leaves them as they were.
func TestIngestBodyBuffersBounded(t *testing.T) {
	drain := func() (largest int) {
		for {
			bp, _ := bodyBufs.Get().(*[]byte)
			if bp == nil {
				return largest
			}
			largest = max(largest, cap(*bp))
		}
	}
	drain()
	var kept []Doc
	post := keptPoster(t, &kept)
	post(`{"docs":[{"title":"first","text":"The NR70 takes excellent pictures."}]}`)
	post(`{"docs":[{"title":"other","text":"XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"}]}`)
	if kept[0].Title != "first" || kept[0].Text != "The NR70 takes excellent pictures." {
		t.Fatalf("a reused buffer changed an earlier request's document: %+v", kept[0])
	}

	big := `{"docs":[{"title":"big","text":"` + strings.Repeat("x", maxPooledBuf+1) + `"}]}`
	post(big)
	if len(kept[2].Text) != maxPooledBuf+1 {
		t.Fatalf("the large document decoded to %d bytes", len(kept[2].Text))
	}
	if n := drain(); n > maxPooledBuf {
		t.Fatalf("a %d-byte buffer was kept after a %d-byte body", n, len(big))
	}
}

// TestIngestBodyPinsNoMoreThanItsDocuments: a small document whose
// request body is mostly bytes it does not keep — a large skipped field,
// or a large value its repeated key replaced — holds on to none of that
// body once stored.
func TestIngestBodyPinsNoMoreThanItsDocuments(t *testing.T) {
	const requests, pad = 8, 512 << 10
	filler := strings.Repeat("x", pad)
	var kept []Doc
	post := keptPoster(t, &kept)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the body buffer pool's victim cache
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := range requests {
		post(`{"pad":"` + filler + `","docs":[{"id":"skipped","text":"The NR70 is great."}]}`)
		post(`{"docs":[{"id":"replaced","text":"` + filler + `","text":"The NR70 is great."}]}`)
		if i == 0 && (kept[0].ID != "skipped" || kept[1].ID != "replaced" || kept[1].Text != "The NR70 is great.") {
			t.Fatalf("decoded %+v", kept)
		}
	}
	grew := int64(heap()) - int64(before)
	runtime.KeepAlive(kept)
	if limit := int64(pad); grew > limit {
		t.Fatalf("%d stored documents of a few bytes each keep %d heap bytes alive (limit %d): their %d-byte bodies are pinned",
			len(kept), grew, limit, pad)
	}
	t.Logf("%d documents from %d bodies of %d bytes keep %d heap bytes", len(kept), 2*requests, pad, grew)
}

// keptPoster returns a function that posts a body to /api/ingest on a
// gateway whose backend appends every document it stores to kept.
func keptPoster(t *testing.T, kept *[]Doc) func(body string) {
	g := NewGateway(&keepDocs{newFakeBackend(), kept}, GatewayConfig{TenantRate: 1e9, TenantBurst: 1 << 30})
	return func(body string) {
		t.Helper()
		w := httptest.NewRecorder()
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/ingest", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// keepDocs is a backend that also keeps every document it is given.
type keepDocs struct {
	*fakeBackend
	kept *[]Doc
}

func (k *keepDocs) Ingest(ctx context.Context, docs []Doc) ([]string, int, error) {
	*k.kept = append(*k.kept, docs...)
	return k.fakeBackend.Ingest(ctx, docs)
}

// BenchmarkDecodeIngest decodes one 32-document bulk body as the
// gateway does: one copy of the read buffer into a string, then the
// decode over it.
func BenchmarkDecodeIngest(b *testing.B) {
	body := bulkBody(b, 7, 32)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeIngest(string(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeIngestEncodingJSON is the same body through
// encoding/json, for comparison.
func BenchmarkDecodeIngestEncodingJSON(b *testing.B) {
	body := bulkBody(b, 7, 32)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jsonDecode(body); err != nil {
			b.Fatal(err)
		}
	}
}
