package webfountain

import (
	"fmt"
	"testing"
)

// backendDocs is the shared corpus for the conformance suite.
func backendDocs() []Document {
	return []Document{
		{Title: "camera review", Source: "review", Text: "The NR70 takes excellent pictures and great video."},
		{Title: "phone news", Source: "news", Text: "The new phone has excellent battery life."},
		{Title: "board post", Source: "bboard", Text: "Terrible service, the battery died fast."},
		{ID: "doc-custom-1", Title: "custom", Source: "web", Text: "excellent pictures of the phone"},
	}
}

// conformance runs the document-platform contract — ingest, get, delete,
// count, search, health — against a platform built by open.
func conformance(t *testing.T, name string, open func(t *testing.T) *Platform) {
	t.Run(name+"/ingest-and-get", func(t *testing.T) {
		b := open(t)
		defer b.Close()
		ids, err := b.Ingest(backendDocs())
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 4 || ids[3] != "doc-custom-1" {
			t.Fatalf("ids = %v", ids)
		}
		for i, id := range ids {
			if id == "" {
				t.Fatalf("doc %d got empty ID", i)
			}
			d, ok := b.Entity(id)
			if !ok || d.ID != id {
				t.Fatalf("entity %s: ok=%v d=%+v", id, ok, d)
			}
		}
		if n := b.NumEntities(); n != 4 {
			t.Fatalf("NumEntities = %d, want 4", n)
		}
		if _, ok := b.Entity("doc-does-not-exist"); ok {
			t.Fatal("phantom entity")
		}
	})
	t.Run(name+"/search", func(t *testing.T) {
		b := open(t)
		defer b.Close()
		ids, err := b.Ingest(backendDocs())
		if err != nil {
			t.Fatal(err)
		}
		all := b.SearchAll("excellent")
		if len(all) != 3 {
			t.Fatalf("SearchAll(excellent) = %v, want 3 docs", all)
		}
		both := b.SearchAll("excellent", "battery")
		if len(both) != 1 || both[0] != ids[1] {
			t.Fatalf("SearchAll(excellent,battery) = %v, want [%s]", both, ids[1])
		}
		phrase := b.SearchPhrase("excellent", "pictures")
		if len(phrase) != 2 {
			t.Fatalf("SearchPhrase = %v, want 2 docs", phrase)
		}
	})
	t.Run(name+"/delete", func(t *testing.T) {
		b := open(t)
		defer b.Close()
		ids, err := b.Ingest(backendDocs())
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Delete(ids[0]); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Entity(ids[0]); ok {
			t.Fatal("deleted entity still readable")
		}
		if n := b.NumEntities(); n != 3 {
			t.Fatalf("NumEntities after delete = %d, want 3", n)
		}
		if got := b.SearchAll("video"); len(got) != 0 {
			t.Fatalf("postings survived delete: %v", got)
		}
		if err := b.Delete("doc-never-existed"); err != nil {
			t.Fatalf("deleting unknown ID must be a no-op, got %v", err)
		}
	})
	t.Run(name+"/healthy", func(t *testing.T) {
		b := open(t)
		defer b.Close()
		if deg, reason := b.Degraded(); deg {
			t.Fatalf("fresh backend degraded: %s", reason)
		}
	})
	t.Run(name+"/scale", func(t *testing.T) {
		b := open(t)
		defer b.Close()
		docs := make([]Document, 120)
		for i := range docs {
			docs[i] = Document{Text: fmt.Sprintf("bulk document %d about shard%d", i, i%7)}
		}
		ids, err := b.Ingest(docs)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 120 || b.NumEntities() != 120 {
			t.Fatalf("ids=%d entities=%d", len(ids), b.NumEntities())
		}
		if got := b.SearchAll("shard3"); len(got) == 0 {
			t.Fatal("bulk corpus not searchable")
		}
	})
}

func openLocal(*testing.T) *Platform { return NewPlatform(PlatformConfig{}) }

func openLocalDurable(t *testing.T) *Platform {
	p, err := OpenPlatform(PlatformConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// searchFirst searches a freshly opened platform, so the suite's ingests
// feed an already-built inverted index; the plain opens leave the
// platform's index build to the suite's first search, after ingest.
func searchFirst(open func(*testing.T) *Platform) func(*testing.T) *Platform {
	return func(t *testing.T) *Platform {
		b := open(t)
		b.SearchAll("warm")
		return b
	}
}

func TestBackendConformanceLocal(t *testing.T) {
	conformance(t, "local", openLocal)
	conformance(t, "local-search-first", searchFirst(openLocal))
}

func TestBackendConformanceLocalDurable(t *testing.T) {
	conformance(t, "local-durable", openLocalDurable)
	conformance(t, "local-durable-search-first", searchFirst(openLocalDurable))
}
