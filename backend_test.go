package webfountain

import (
	"fmt"
	"sync"
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

// conformance runs the Backend contract against any implementation —
// the single-process Platform and the replicated DistributedPlatform
// must be indistinguishable through this interface.
func conformance(t *testing.T, name string, open func(t *testing.T) Backend) {
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

func openLocal(*testing.T) Backend { return NewPlatform(PlatformConfig{}) }

func openLocalDurable(t *testing.T) Backend {
	p, err := OpenPlatform(PlatformConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// searchFirst searches a freshly opened backend, so the suite's ingests
// feed an already-built inverted index; the plain opens leave the
// platform's index build to the suite's first search, after ingest.
func searchFirst(open func(*testing.T) Backend) func(*testing.T) Backend {
	return func(t *testing.T) Backend {
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

func TestBackendConformanceDistributed(t *testing.T) {
	conformance(t, "distributed", func(t *testing.T) Backend {
		dp, err := NewDistributedPlatform(DistributedConfig{Nodes: 3, Replicas: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return dp
	})
}

func TestBackendConformanceDistributedDurable(t *testing.T) {
	conformance(t, "distributed-durable", func(t *testing.T) Backend {
		dp, err := NewDistributedPlatform(DistributedConfig{
			Nodes: 3, Replicas: 2, Seed: 42, DataDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return dp
	})
}

// TestDistributedReplicationInvariant pins the replica-placement
// contract: every document lands on exactly R nodes, and those nodes
// are its ring-assigned replica set.
func TestDistributedReplicationInvariant(t *testing.T) {
	dp, err := NewDistributedPlatform(DistributedConfig{Nodes: 3, Replicas: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	docs := make([]Document, 60)
	for i := range docs {
		docs[i] = Document{Text: fmt.Sprintf("replicated doc %d", i)}
	}
	ids, err := dp.Ingest(docs)
	if err != nil {
		t.Fatal(err)
	}
	ring := dp.Router().Ring()
	for _, id := range ids {
		holders := 0
		for _, name := range dp.NodeNames() {
			if dp.NodeHas(name, id) {
				if !ring.Owns(name, id) {
					t.Fatalf("%s held by non-owner %s", id, name)
				}
				holders++
			}
		}
		if holders != 2 {
			t.Fatalf("%s on %d nodes, want R=2", id, holders)
		}
	}
}

// TestDistributedAddNodeRebalances drives the online-handoff path
// through the Backend-level API.
func TestDistributedAddNodeRebalances(t *testing.T) {
	dp, err := NewDistributedPlatform(DistributedConfig{Nodes: 2, Replicas: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	docs := make([]Document, 50)
	for i := range docs {
		docs[i] = Document{Text: fmt.Sprintf("pre-join doc %d", i)}
	}
	ids, err := dp.Ingest(docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.AddNode("node-3"); err != nil {
		t.Fatal(err)
	}
	if got := dp.Router().Ring().Epoch(); got != 1 {
		t.Fatalf("epoch after join = %d, want 1", got)
	}
	ring := dp.Router().Ring()
	for _, id := range ids {
		if ring.Owns("node-3", id) && !dp.NodeHas("node-3", id) {
			t.Fatalf("joined node missing owned %s", id)
		}
		if d, ok := dp.Entity(id); !ok || d.ID != id {
			t.Fatalf("entity %s unreadable after rebalance", id)
		}
	}
	if n := dp.NumEntities(); n != 50 {
		t.Fatalf("NumEntities after join = %d, want 50", n)
	}
}

// TestDistributedMembershipConcurrentWithReads: AddNode rebuilds the
// node map while health checks and invariant probes read it — the
// exact overlap online handoff creates. Run under -race this pins the
// membership maps' synchronization.
func TestDistributedMembershipConcurrentWithReads(t *testing.T) {
	dp, err := NewDistributedPlatform(DistributedConfig{Nodes: 3, Replicas: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	docs := make([]Document, 40)
	for i := range docs {
		docs[i] = Document{Text: fmt.Sprintf("pre-join doc %d", i)}
	}
	ids, err := dp.Ingest(docs)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, n := range dp.NodeNames() {
					dp.NodeHas(n, ids[0])
					dp.NodeEntityCount(n)
				}
				dp.Degraded()
				dp.Entity(ids[len(ids)-1])
			}
		}()
	}
	if err := dp.AddNode("node-4"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	names := dp.NodeNames()
	if names[len(names)-1] != "node-4" {
		t.Fatalf("node-4 missing from %v", names)
	}
	if n, ok := dp.NodeEntityCount("node-4"); !ok || n == 0 {
		t.Fatalf("joined node holds %d entities (ok=%v)", n, ok)
	}
}
