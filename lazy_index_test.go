package webfountain

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"webfountain/internal/metrics"
	"webfountain/internal/serve"
)

// indexAdds is internal/index's count of documents added to any index.
var indexAdds = metrics.Default().Counter("index.adds")

// textsTokenized is internal/tokenize's count of texts tokenized.
var textsTokenized = metrics.Default().Counter("tokenize.texts")

// servingBatch is ingestBatch as serving-tier documents (no IDs, so the
// platform generates them).
func servingBatch(seed int64, n int) []serve.Doc {
	docs := ingestBatch(seed, n)
	out := make([]serve.Doc, len(docs))
	for i, d := range docs {
		out[i] = serve.Doc{Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text}
	}
	return out
}

// platformDocs is a serving batch as Platform.Ingest documents.
func platformDocs(docs []serve.Doc) []Document {
	out := make([]Document, len(docs))
	for i, d := range docs {
		out[i] = Document{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text}
	}
	return out
}

// searchAnswers runs a fixed set of term and phrase queries and returns
// each answer sorted, keyed by the query.
func searchAnswers(p *Platform) map[string][]string {
	out := map[string][]string{}
	for _, q := range [][]string{{"battery"}, {"excellent"}, {"pictures", "battery"}, {"camera", "zoom"}} {
		out[fmt.Sprint("all", q)] = sortedIDs(p.SearchAll(q...))
	}
	for _, q := range [][]string{{"battery", "life"}, {"excellent", "pictures"}, {"picture", "quality"}} {
		out[fmt.Sprint("phrase", q)] = sortedIDs(p.SearchPhrase(q...))
	}
	return out
}

func sortedIDs(ids []string) []string {
	ids = append([]string{}, ids...)
	sort.Strings(ids)
	return ids
}

// TestServingTierBuildsNoIndex drives the serving binary's whole life —
// seed, live ingest, kill, recovery from the store — and asserts it
// indexes nothing: no search, no build, no index.Add. A later search
// then builds the index from the recovered store and answers exactly
// what a platform that ran the same inputs, searching before every
// ingest, answers — before and after one more ingest through the
// now-built index.
func TestServingTierBuildsNoIndex(t *testing.T) {
	dir := t.TempDir()
	adds, builds := indexAdds.Value(), platformIndexBuildNs.Count()

	open := func(batches ...[]serve.Doc) *Platform {
		p, err := OpenPlatform(PlatformConfig{DataDir: dir, IngestWorkers: 2})
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
		for _, b := range batches {
			if _, _, err := tier.Ingest(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	open(servingBatch(1, 40), servingBatch(2, 8)) // seeded and fed, then killed: never closed
	p := open()                                   // the restart only recovers
	if d := indexAdds.Value() - adds; d != 0 {
		t.Fatalf("the serving tier added %d documents to an inverted index, want 0", d)
	}
	if d := platformIndexBuildNs.Count() - builds; d != 0 {
		t.Fatalf("the serving tier built the inverted index %d times, want 0", d)
	}
	if n := p.NumEntities(); n != 48 {
		t.Fatalf("recovered %d documents, want 48", n)
	}

	ref := NewPlatform(PlatformConfig{IngestWorkers: 2})
	for _, b := range [][]serve.Doc{servingBatch(1, 40), servingBatch(2, 8)} {
		ref.SearchAll("warm")
		if _, err := ref.Ingest(platformDocs(b)); err != nil {
			t.Fatal(err)
		}
	}
	got, want := searchAnswers(p), searchAnswers(ref)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("late-built index answers\n%v\nwant (searched before every ingest)\n%v", got, want)
	}
	if len(want["all[battery]"]) == 0 || len(want["phrase[excellent pictures]"]) == 0 {
		t.Fatalf("probe queries hit nothing: %v", want)
	}
	if d := platformIndexBuildNs.Count() - builds; d != 2 {
		t.Fatalf("%d index builds, want one per platform", d)
	}

	more := platformDocs(servingBatch(3, 6))
	for _, q := range []*Platform{p, ref} {
		if _, err := q.Ingest(more); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := searchAnswers(p), searchAnswers(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a further ingest: answers\n%v\nwant\n%v", got, want)
	}
}

// TestIndexBuildRacesIngest starts the first search while a parallel
// ingest is in flight: every document must reach the index exactly once
// — from the build or from its own ingest step, never both and never
// neither — so the index.Add count equals the number of documents
// ingested and the answers equal those of an index built after the dust
// settled.
func TestIndexBuildRacesIngest(t *testing.T) {
	p := NewPlatform(PlatformConfig{IngestWorkers: 4})
	adds := indexAdds.Value()
	const batches, per = 6, 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			if _, err := p.Ingest(ingestBatch(int64(b+20), per)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for p.NumEntities() < per {
		select {
		case <-done:
			t.Fatal("ingest ended early")
		default:
			runtime.Gosched()
		}
	}
	p.SearchAll("battery")
	<-done
	if d := indexAdds.Value() - adds; d != batches*per {
		t.Fatalf("%d index adds for %d ingested documents", d, batches*per)
	}
	if got, want := p.index.Load().NumDocs(), p.NumEntities(); got != want {
		t.Fatalf("index holds %d documents, store %d", got, want)
	}
	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	ref := NewPlatform(PlatformConfig{})
	if _, err := ref.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if got, want := searchAnswers(p), searchAnswers(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("index built mid-ingest answers\n%v\nwant\n%v", got, want)
	}
}

// TestServedDocumentTokenizedOnce: a document the serving tier ingests
// is tokenized exactly once, whether the inverted index is built or not.
// Before the first search only the miner tokenizes and nothing is
// indexed; after it, the ingest step's tokens feed both the miner and
// the commit's index add, so every served document is also indexed once
// and searches answer as on a platform that never served.
func TestServedDocumentTokenizedOnce(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPlatform(PlatformConfig{IngestWorkers: workers})
			m, err := NewSentimentMiner(MinerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tier := NewServingTier(p, m, nil)
			ingest := func(batch []serve.Doc, wantAdds int64) {
				t.Helper()
				texts, adds := textsTokenized.Value(), indexAdds.Value()
				ids, _, err := tier.Ingest(context.Background(), batch)
				if err != nil || len(ids) != len(batch) {
					t.Fatalf("ingest: %d of %d acked, err %v", len(ids), len(batch), err)
				}
				if d := textsTokenized.Value() - texts; d != int64(len(batch)) {
					t.Fatalf("%d served documents tokenized %d times, want once each", len(batch), d)
				}
				if d := indexAdds.Value() - adds; d != wantAdds {
					t.Fatalf("%d index adds for %d served documents, want %d", d, len(batch), wantAdds)
				}
			}
			first, second := servingBatch(31, 12), servingBatch(32, 12)
			ingest(first, 0)
			p.SearchAll("battery") // builds the index
			ingest(second, int64(len(second)))

			ref := NewPlatform(PlatformConfig{})
			for _, b := range [][]serve.Doc{first, second} {
				if _, err := ref.Ingest(platformDocs(b)); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := searchAnswers(p), searchAnswers(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("served platform answers\n%v\nwant\n%v", got, want)
			}
		})
	}
}

// TestReopenNeverReusesStoredIDs: a reopened platform generates IDs past
// every stored generated ID, whether its first search — the index build,
// which must not touch the ID generator — comes before or after its next
// ingest, and across a second reopen after the index was built.
func TestReopenNeverReusesStoredIDs(t *testing.T) {
	dir := t.TempDir()
	seen := map[string]bool{}
	ingest := func(p *Platform, seed int64) {
		t.Helper()
		ids, err := p.Ingest(ingestBatch(seed, 6))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("ID %s reused", id)
			}
			seen[id] = true
		}
	}
	reopen := func(p *Platform) *Platform {
		t.Helper()
		if p != nil {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
		p, err := OpenPlatform(PlatformConfig{DataDir: dir, IngestWorkers: 3})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := reopen(nil)
	ingest(p, 1)
	p = reopen(p)
	ingest(p, 2) // before the first search
	p.SearchAll("battery")
	ingest(p, 3) // after it
	p = reopen(p)
	p.SearchPhrase("battery", "life") // the first search comes first this time
	ingest(p, 4)
	ingest(p, 5)
	if n := p.NumEntities(); n != len(seen) || n != 30 {
		t.Fatalf("%d documents stored, %d distinct IDs acked; want 30 of each", n, len(seen))
	}
	if got := len(p.SearchAll("camera")); got == 0 {
		t.Fatal("reopened corpus not searchable")
	}
	p.Close()
}
