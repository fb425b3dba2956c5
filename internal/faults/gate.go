package faults

import (
	"sync"

	"webfountain/internal/vinci"
)

// Gate models node-level failures for in-process cluster chaos. Where
// the Injector faults individual operations probabilistically, a Gate
// fails a whole node deterministically: killed (crashed — every call
// refused until revived) or partitioned (unreachable — same refusal,
// but conceptually the node is still running). In both cases the node
// keeps its store, so a revive models crash-plus-durable-recovery.
//
// The gate counts traffic on both sides of the boundary, so a test can
// assert failover cost: after a kill, the calls a client still sends at
// the dead node before it routes around it.
type Gate struct {
	name string

	mu          sync.Mutex
	killed      bool
	partitioned bool
	delivered   uint64 // calls passed through while up
	refused     uint64 // calls refused while down
}

// NewGate builds an open gate for the named node.
func NewGate(name string) *Gate { return &Gate{name: name} }

// Name is the node the gate guards.
func (g *Gate) Name() string { return g.name }

// Kill crashes the node: every call through the gate is refused until
// Revive.
func (g *Gate) Kill() {
	g.mu.Lock()
	g.killed = true
	g.mu.Unlock()
}

// Revive restarts the node (its durable state intact).
func (g *Gate) Revive() {
	g.mu.Lock()
	g.killed = false
	g.mu.Unlock()
}

// Partition cuts the node off the network; Heal reconnects it.
func (g *Gate) Partition() {
	g.mu.Lock()
	g.partitioned = true
	g.mu.Unlock()
}

// Heal ends a partition.
func (g *Gate) Heal() {
	g.mu.Lock()
	g.partitioned = false
	g.mu.Unlock()
}

// Down reports whether calls are currently refused.
func (g *Gate) Down() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.killed || g.partitioned
}

// Counts returns how many calls the gate delivered (node up) and
// refused (node down) so far.
func (g *Gate) Counts() (delivered, refused uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.delivered, g.refused
}

// ResetCounts zeroes the traffic counters — called at a kill boundary
// so the refused count measures detection cost for that kill alone.
func (g *Gate) ResetCounts() {
	g.mu.Lock()
	g.delivered, g.refused = 0, 0
	g.mu.Unlock()
}

// Client wraps a node's vinci client behind the gate.
func (g *Gate) Client(c vinci.Client) vinci.Client { return &gatedClient{g: g, c: c} }

type gatedClient struct {
	g *Gate
	c vinci.Client
}

func (gc *gatedClient) Call(req vinci.Request) (vinci.Response, error) {
	gc.g.mu.Lock()
	down := gc.g.killed || gc.g.partitioned
	if down {
		gc.g.refused++
	} else {
		gc.g.delivered++
	}
	gc.g.mu.Unlock()
	if down {
		// Transient: the node may come back, so retry layers are allowed
		// to try again, here or on another transport.
		return vinci.Response{}, &Error{Op: "node:" + gc.g.name, Transient: true}
	}
	return gc.c.Call(req)
}

func (gc *gatedClient) Close() error { return gc.c.Close() }
