package router

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"webfountain/internal/store"
	"webfountain/internal/vinci"
)

// waitFor polls cond until it holds or the deadline passes — for
// observing background work (quorum stragglers, read repairs) without
// racing it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestQuorumWriteRequiresW(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2", "n3"}, Options{Replicas: 2, Seed: 42, WriteQuorum: 2})
	id := testEntity(0).ID
	set := c.r.Ring().ReplicaSet(id)
	if len(set) != 2 {
		t.Fatalf("replica set %v, want 2", set)
	}
	// Both replicas up: the write reaches quorum and lands on both.
	if err := c.r.Put(testEntity(0)); err != nil {
		t.Fatalf("put with full replica set: %v", err)
	}
	if h := c.holders(id); len(h) != 2 {
		t.Fatalf("holders %v, want both replicas", h)
	}
	// One replica down: W=2 cannot be met and the write must refuse —
	// that refusal is what makes an ack survive any single replica loss.
	c.nodes[set[1]].gate.Kill()
	if err := c.r.Put(testEntity(0)); err == nil {
		t.Fatal("put acked with only 1 of W=2 replicas reachable")
	}
}

func TestQuorumAckSurvivesFirstAckerLoss(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2", "n3"}, Options{Replicas: 2, Seed: 42, WriteQuorum: 2})
	c.put(t, 20)
	// Every acked write is on W=2 replicas, so losing ANY one node —
	// including whichever acked first — leaves a readable copy.
	for _, victim := range []string{"n1", "n2", "n3"} {
		c.nodes[victim].gate.Kill()
		for i := 0; i < 20; i++ {
			id := testEntity(i).ID
			if e, err := c.r.Get(id); err != nil || e.ID != id {
				t.Fatalf("get %s with %s dead: %v", id, victim, err)
			}
		}
		c.nodes[victim].gate.Revive()
	}
}

func TestQuorumGetNewestWinsAndRepairs(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2", "n3"},
		Options{Replicas: 2, Seed: 42, WriteQuorum: 1, ReadQuorum: 2})
	id := testEntity(3).ID
	if err := c.r.Put(testEntity(3)); err != nil {
		t.Fatal(err)
	}
	set := c.r.Ring().ReplicaSet(id)
	stale := set[1]
	// Strand an old version: kill one replica, update under W=1, revive
	// without a rejoin. The revived node still serves its stale copy.
	// Under W=1 the put acks on the first replica; wait for the straggler
	// write to land on both before the kill, or there is no copy to strand.
	waitFor(t, "straggler settles", func() bool {
		return len(c.holders(id)) == 2
	})
	c.nodes[stale].gate.Kill()
	updated := &store.Entity{ID: id, Text: "updated text after the kill"}
	if err := c.r.Put(updated); err != nil {
		t.Fatalf("put update with dead replica under W=1: %v", err)
	}
	c.nodes[stale].gate.Revive()
	oldE, ok := c.nodes[stale].st.Get(id)
	if !ok {
		t.Fatalf("stale replica lost its copy entirely")
	}
	// A quorum read consults both replicas, answers with the newest
	// version, and repairs the stale one in the background.
	got, err := c.r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != updated.Text {
		t.Fatalf("quorum read returned stale text %q", got.Text)
	}
	if got.Version <= oldE.Version {
		t.Fatalf("updated version %d not newer than stale %d", got.Version, oldE.Version)
	}
	waitFor(t, "read-repair lands", func() bool {
		e, ok := c.nodes[stale].st.Get(id)
		return ok && e.Version == got.Version
	})
}

func TestQuorumGetAnswersWithReplicaDown(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2", "n3"},
		Options{Replicas: 2, Seed: 42, WriteQuorum: 1, ReadQuorum: 2})
	c.put(t, 10)
	id := testEntity(4).ID
	c.nodes[c.r.Ring().ReplicaSet(id)[0]].gate.Kill()
	// R=2 with only one replica reachable: availability beats strict R.
	if e, err := c.r.Get(id); err != nil || e.ID != id {
		t.Fatalf("quorum get with one replica down: %v", err)
	}
}

func TestAntiEntropyConvergesMissedWritesAndDeletes(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2", "n3"}, Options{Replicas: 2, Seed: 7, WriteQuorum: 1})
	c.put(t, 20)
	victim := "n2"
	c.nodes[victim].gate.Kill()
	c.put(t, 40) // 20 new writes the victim misses
	// Delete something the victim holds, while it is down.
	var deleted string
	for i := 0; i < 20; i++ {
		if cand := testEntity(i).ID; c.r.Ring().Owns(victim, cand) {
			deleted = cand
			break
		}
	}
	if deleted != "" {
		if err := c.r.Delete(deleted); err != nil {
			t.Fatal(err)
		}
	}
	c.nodes[victim].gate.Revive()
	// No rejoin, no reads: the sweep alone must converge the victim.
	repaired, err := c.r.AntiEntropyOnce()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if repaired == 0 {
		t.Fatal("sweep repaired nothing despite a node full of missed writes")
	}
	for i := 0; i < 40; i++ {
		id := testEntity(i).ID
		if !c.r.Ring().Owns(victim, id) || id == deleted {
			continue
		}
		if _, ok := c.nodes[victim].st.Get(id); !ok {
			t.Fatalf("after sweep, %s still missing owned entity %s", victim, id)
		}
	}
	if deleted != "" {
		if _, ok := c.nodes[victim].st.Get(deleted); ok {
			t.Fatalf("after sweep, %s still holds deleted entity %s", victim, deleted)
		}
	}
}

func TestAntiEntropyDigestFastPath(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2", "n3"}, Options{Replicas: 2, Seed: 7})
	c.put(t, 15)
	// First sweep does the full census and remembers converged digests.
	if _, err := c.r.AntiEntropyOnce(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		n.gate.ResetCounts()
	}
	// Second sweep over unchanged state: one digest call per node and
	// nothing else.
	repaired, err := c.r.AntiEntropyOnce()
	if err != nil || repaired != 0 {
		t.Fatalf("idle sweep: repaired=%d err=%v", repaired, err)
	}
	for name, n := range c.nodes {
		if delivered, _ := n.gate.Counts(); delivered != 1 {
			t.Fatalf("fast-path sweep made %d calls to %s, want exactly 1 (the digest)", delivered, name)
		}
	}
	// A write moves one digest; the next sweep must notice (not fast-path
	// into ignoring it) and still end converged.
	if err := c.r.Put(testEntity(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.r.AntiEntropyOnce(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		n.gate.ResetCounts()
	}
	if repaired, err := c.r.AntiEntropyOnce(); err != nil || repaired != 0 {
		t.Fatalf("post-write sweep: repaired=%d err=%v", repaired, err)
	}
	for name, n := range c.nodes {
		if delivered, _ := n.gate.Counts(); delivered != 1 {
			t.Fatalf("sweep after re-convergence made %d calls to %s, want 1", delivered, name)
		}
	}
}

// --- multi-router epoch agreement ---

// topoClient exposes a router's topology service as an in-process
// vinci client — how peer routers reach each other in tests.
func topoClient(t *testing.T, r *Router) vinci.Client {
	t.Helper()
	reg := vinci.NewRegistry()
	r.RegisterTopology(reg)
	return vinci.NewLocalClient(reg)
}

// newPeerRouter builds a second router over the same node set with the
// same placement inputs, so both start on byte-identical rings.
func newPeerRouter(t *testing.T, c *cluster, names []string, opts Options) *Router {
	t.Helper()
	var handles []NodeHandle
	for _, name := range names {
		handles = append(handles, NodeHandle{Name: name, Client: c.nodes[name].c})
	}
	r := New(handles, opts)
	t.Cleanup(func() { r.Close() })
	return r
}

func TestPeerRoutersConvergeOnJoin(t *testing.T) {
	names := []string{"n1", "n2"}
	dialable := map[string]vinci.Client{}
	opts := Options{Replicas: 2, Seed: 42,
		Dial: func(addr string) (vinci.Client, error) {
			if c, ok := dialable[addr]; ok {
				return c, nil
			}
			return nil, fmt.Errorf("no route to %s", addr)
		}}
	c := newCluster(t, names, opts)
	rb := newPeerRouter(t, c, names, opts)
	c.r.AddPeer("rb", topoClient(t, rb))
	rb.AddPeer("ra", topoClient(t, c.r))
	if c.r.Ring().Digest() != rb.Ring().Digest() {
		t.Fatal("peer routers must start on identical rings")
	}
	// A node joins through router A only. The broadcast must carry the
	// new member (with its address) to router B, which has never met it.
	n3 := newTestNode("n3")
	dialable["addr:n3"] = n3.c
	if err := c.r.JoinAddr("n3", "addr:n3", n3.c); err != nil {
		t.Fatal(err)
	}
	if err := c.r.BroadcastRing(); err != nil {
		t.Fatalf("broadcast after join: %v", err)
	}
	if got, want := rb.Ring().Epoch(), c.r.Ring().Epoch(); got != want {
		t.Fatalf("peer epoch %d, want %d", got, want)
	}
	if rb.Ring().Digest() != c.r.Ring().Digest() {
		t.Fatal("peer adopted a different ring than it was offered")
	}
	// Router B can now route writes to the member it just learned about.
	if err := rb.Put(testEntity(5)); err != nil {
		t.Fatalf("put through adopting router: %v", err)
	}
}

func TestPeerForkResolvesDeterministically(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	dialable := map[string]vinci.Client{}
	opts := Options{Replicas: 2, Seed: 7,
		Dial: func(addr string) (vinci.Client, error) {
			if c, ok := dialable[addr]; ok {
				return c, nil
			}
			return nil, fmt.Errorf("no route to %s", addr)
		}}
	// Every node gets a dialable address, so whichever fork loses can
	// re-acquire members it dropped (or never met).
	var handles []NodeHandle
	for _, name := range names {
		n := newTestNode(name)
		dialable["addr:"+name] = n.c
		handles = append(handles, NodeHandle{Name: name, Client: n.c, Addr: "addr:" + name})
	}
	ra := New(handles, opts)
	t.Cleanup(func() { ra.Close() })
	rb := New(handles, opts)
	t.Cleanup(func() { rb.Close() })
	ra.AddPeer("rb", topoClient(t, rb))
	rb.AddPeer("ra", topoClient(t, ra))
	// Fork: both routers change membership independently (a split), so
	// both sit at epoch 1 with different digests.
	n4 := newTestNode("n4")
	dialable["addr:n4"] = n4.c
	if err := ra.JoinAddr("n4", "addr:n4", n4.c); err != nil {
		t.Fatal(err)
	}
	if err := rb.Drain("n3"); err != nil {
		t.Fatal(err)
	}
	if ra.Ring().Epoch() != 1 || rb.Ring().Epoch() != 1 {
		t.Fatalf("fork setup: epochs %d/%d, want 1/1", ra.Ring().Epoch(), rb.Ring().Epoch())
	}
	if ra.Ring().Digest() == rb.Ring().Digest() {
		t.Fatal("fork setup: digests should differ")
	}
	// The rule (equal epoch: smaller digest wins) is symmetric, so one
	// sync from either side converges both.
	winner := ra.Ring().Digest()
	if rb.Ring().Digest() < winner {
		winner = rb.Ring().Digest()
	}
	if err := ra.SyncPeersOnce(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got := ra.Ring().Digest(); got != winner {
		t.Fatalf("router A on digest %.12s, want winner %.12s", got, winner)
	}
	if got := rb.Ring().Digest(); got != winner {
		t.Fatalf("router B on digest %.12s, want winner %.12s", got, winner)
	}
}

func TestStaleRouterRefusesWritesUntilAdoption(t *testing.T) {
	names := []string{"n1", "n2"}
	opts := Options{Replicas: 2, Seed: 42} // no Dial: adoption of unknown members must fail
	c := newCluster(t, names, opts)
	rb := newPeerRouter(t, c, names, opts)
	c.r.AddPeer("rb", topoClient(t, rb))
	rb.AddPeer("ra", topoClient(t, c.r))
	c.put(t, 5)
	// Router A admits a node router B can neither reach nor dial. The
	// broadcast must fail loudly, and B — now knowing it is behind —
	// must refuse writes but keep serving reads.
	n3 := newTestNode("n3")
	if err := c.r.Join("n3", n3.c); err != nil {
		t.Fatal(err)
	}
	if err := c.r.BroadcastRing(); err == nil {
		t.Fatal("broadcast to a peer that cannot adopt must report failure")
	}
	if !rb.Stale() {
		t.Fatal("peer that failed adoption of a winning ring must mark itself stale")
	}
	if err := rb.Put(testEntity(0)); !errors.Is(err, ErrStaleRouter) {
		t.Fatalf("stale router write: err=%v, want ErrStaleRouter", err)
	}
	if _, err := rb.Get(testEntity(0).ID); err != nil {
		t.Fatalf("stale router must keep serving reads: %v", err)
	}
	// Once the member is reachable (pre-wired handle), a re-pull adopts
	// the current ring and clears the refusal.
	rb.AddHandle(NodeHandle{Name: "n3", Client: n3.c})
	if err := rb.SyncPeersOnce(); err != nil {
		t.Fatalf("re-pull: %v", err)
	}
	if rb.Stale() {
		t.Fatal("stale flag did not clear after successful adoption")
	}
	if rb.Ring().Digest() != c.r.Ring().Digest() {
		t.Fatal("re-pull did not converge the rings")
	}
	if err := rb.Put(testEntity(0)); err != nil {
		t.Fatalf("put after adoption: %v", err)
	}
}
