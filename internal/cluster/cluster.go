// Package cluster implements the WebFountain miner runtime: a
// shared-nothing execution engine that deploys entity-level miners in
// parallel across store shards and runs corpus-level miners over the
// whole collection.
//
// Entity-level miners process each entity in isolation and augment it
// with annotations (tokenizers, spotters, the sentiment miner). Corpus-
// level miners see the entire store (aggregate statistics, the feature
// extractor, index building). In the production system each cluster node
// owns a shard; here a worker pool owns shards within one process, which
// preserves the execution model — no cross-entity state inside an
// entity-level miner — at laptop scale.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"webfountain/internal/metrics"
	"webfountain/internal/store"
)

// EntityMiner is a miner that processes one entity at a time.
type EntityMiner interface {
	// Name identifies the miner; its annotations carry this name.
	Name() string
	// Process inspects the entity and returns annotations to attach. It
	// must not retain or mutate e. The returned slice is owned by the
	// cluster: it stamps the miner name into each annotation in place
	// before the write-back, so Process must return a slice it does not
	// itself retain.
	Process(e *store.Entity) ([]store.Annotation, error)
}

// CorpusMiner is a miner that needs the whole collection.
type CorpusMiner interface {
	// Name identifies the miner.
	Name() string
	// Run executes over the full store.
	Run(s *store.Store) error
}

// Stats summarizes one miner deployment.
type Stats struct {
	// Miner is the miner's name.
	Miner string
	// TraceID correlates this deployment's log lines, metrics and Vinci
	// calls; assigned when the deployment starts.
	TraceID string
	// Entities is the number of entities processed.
	Entities int
	// Annotations is the number of annotations attached.
	Annotations int
	// Failures is the number of entities whose processing errored.
	Failures int
	// Panics is the number of recovered miner panics.
	Panics int
	// WriteFailures is the number of entities whose annotations were
	// mined but could not be written back to the store — the store was
	// in degraded read-only mode or its write-ahead log failed.
	WriteFailures int
	// Elapsed is the wall-clock duration of the deployment.
	Elapsed time.Duration
}

// String renders the stats in one line.
func (s Stats) String() string {
	out := fmt.Sprintf("%s: %d entities, %d annotations, %d failures in %v",
		s.Miner, s.Entities, s.Annotations, s.Failures, s.Elapsed)
	if s.Panics > 0 {
		out += fmt.Sprintf(", %d panics", s.Panics)
	}
	if s.WriteFailures > 0 {
		out += fmt.Sprintf(", %d write failures", s.WriteFailures)
	}
	return out
}

// Cluster runs miners over a store.
type Cluster struct {
	store   *store.Store
	workers int
}

// New returns a cluster over the store with one worker per shard,
// capped at 8. Miners are deterministic in-process functions, so a
// failed entity is reported, never retried.
func New(st *store.Store) *Cluster {
	return &Cluster{store: st, workers: min(st.NumShards(), 8)}
}

// maxErrors bounds how many per-entity errors are retained verbatim.
const maxErrors = 8

// minerMetrics is one miner's handle set, resolved once per deployment
// so the per-entity path touches only atomics.
type minerMetrics struct {
	entities *metrics.Counter
	failures *metrics.Counter
	panics   *metrics.Counter
	entityNs *metrics.Histogram
	deployNs *metrics.Histogram
}

func minerMetricsFor(name string) *minerMetrics {
	reg := metrics.Default()
	p := "cluster.miner." + name + "."
	return &minerMetrics{
		entities: reg.Counter(p + "entities"),
		failures: reg.Counter(p + "failures"),
		panics:   reg.Counter(p + "panics"),
		entityNs: reg.Histogram(p + "entity.ns"),
		deployNs: reg.Histogram(p + "deploy.ns"),
	}
}

// runState is the shared bookkeeping of one deployment.
type runState struct {
	mu    sync.Mutex
	stats Stats
	errs  []error
	mm    *minerMetrics
}

// safeProcess runs one Process call with panic recovery.
func safeProcess(m EntityMiner, e *store.Entity) (anns []store.Annotation, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("miner panicked: %v", r)
		}
	}()
	anns, err = m.Process(e)
	return anns, false, err
}

// RunEntityMiner deploys one entity-level miner across all shards in
// parallel. Per-entity failures do not abort the run: panics are
// recovered and counted, and up to maxErrors failure details are
// collected into the returned error (nil when every entity succeeded).
func (c *Cluster) RunEntityMiner(m EntityMiner) (Stats, error) {
	start := time.Now()
	shards := make(chan int)
	var wg sync.WaitGroup

	rs := &runState{
		stats: Stats{Miner: m.Name(), TraceID: metrics.NewTraceID()},
		mm:    minerMetricsFor(m.Name()),
	}

	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range shards {
				c.mineShard(m, shard, rs)
			}
		}()
	}
	for i := 0; i < c.store.NumShards(); i++ {
		shards <- i
	}
	close(shards)
	wg.Wait()

	rs.stats.Elapsed = time.Since(start)
	rs.mm.deployNs.ObserveDuration(rs.stats.Elapsed)
	if len(rs.errs) > 0 {
		return rs.stats, fmt.Errorf("cluster: %d entities failed under %s: %w",
			rs.stats.Failures, m.Name(), errors.Join(rs.errs...))
	}
	return rs.stats, nil
}

func (c *Cluster) mineShard(m EntityMiner, shard int, rs *runState) {
	_ = c.store.ForEachInShard(shard, func(e *store.Entity) error {
		span := rs.mm.entityNs.Start()
		anns, panicked, err := safeProcess(m, e)
		span.End()
		rs.mm.entities.Inc()
		if panicked {
			rs.mm.panics.Inc()
		}
		if err != nil {
			rs.mm.failures.Inc()
		}
		writeFailed := false
		if err == nil && len(anns) > 0 {
			// The write-back stays outside the stats critical section:
			// holding the mutex across Annotate would serialize all shard
			// workers through one lock. Annotate write-ahead-logs the
			// annotations on durable stores; a failure (degraded read-only
			// mode) makes the mined result unrecoverable, so it counts as
			// an entity failure like any other.
			// Stamp the miner name in place: Process hands over ownership
			// of the returned slice, so no defensive copy is needed.
			for i := range anns {
				anns[i].Miner = m.Name()
			}
			if _, werr := c.store.Annotate(e.ID, anns); werr != nil {
				err = fmt.Errorf("annotation write-back: %w", werr)
				writeFailed = true
			}
		}
		rs.mu.Lock()
		defer rs.mu.Unlock()
		rs.stats.Entities++
		if writeFailed {
			rs.stats.WriteFailures++
		}
		if panicked {
			rs.stats.Panics++
		}
		if err != nil {
			rs.stats.Failures++
			if len(rs.errs) < maxErrors {
				rs.errs = append(rs.errs, fmt.Errorf("%s: %w", e.ID, err))
			}
			return nil
		}
		rs.stats.Annotations += len(anns)
		return nil
	})
}

// RunPipeline deploys entity miners in order, then corpus miners in order.
// It stops at the first corpus-miner error; entity-miner per-entity
// failures are reported but do not stop the pipeline.
func (c *Cluster) RunPipeline(entityMiners []EntityMiner, corpusMiners []CorpusMiner) ([]Stats, error) {
	var all []Stats
	var firstErr error
	for _, m := range entityMiners {
		st, err := c.RunEntityMiner(m)
		all = append(all, st)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, m := range corpusMiners {
		start := time.Now()
		err := m.Run(c.store)
		elapsed := time.Since(start)
		minerMetricsFor(m.Name()).deployNs.ObserveDuration(elapsed)
		all = append(all, Stats{Miner: m.Name(), TraceID: metrics.NewTraceID(), Elapsed: elapsed})
		if err != nil {
			return all, fmt.Errorf("cluster: corpus miner %s: %w", m.Name(), err)
		}
	}
	return all, firstErr
}

// MinerFunc adapts a function to the EntityMiner interface.
type MinerFunc struct {
	// MinerName is returned by Name.
	MinerName string
	// Fn is invoked per entity.
	Fn func(e *store.Entity) ([]store.Annotation, error)
}

// Name implements EntityMiner.
func (m MinerFunc) Name() string { return m.MinerName }

// Process implements EntityMiner.
func (m MinerFunc) Process(e *store.Entity) ([]store.Annotation, error) { return m.Fn(e) }

// CorpusFunc adapts a function to the CorpusMiner interface.
type CorpusFunc struct {
	// MinerName is returned by Name.
	MinerName string
	// Fn is invoked with the store.
	Fn func(s *store.Store) error
}

// Name implements CorpusMiner.
func (m CorpusFunc) Name() string { return m.MinerName }

// Run implements CorpusMiner.
func (m CorpusFunc) Run(s *store.Store) error { return m.Fn(s) }
