package store

import "webfountain/internal/metrics"

// Package-level metric handles, resolved once so the WAL hot path pays
// only atomic increments. The degraded gauge is authoritative for the
// whole process: any shard store flipping read-only raises it.
var (
	walAppends      = metrics.Default().Counter("store.wal.appends")
	walSyncs        = metrics.Default().Counter("store.wal.syncs")
	walFsyncNs      = metrics.Default().Histogram("store.wal.fsync.ns")
	walBatchRecords = metrics.Default().SizeHistogram("store.wal.batch.records")
	compactions     = metrics.Default().Counter("store.compactions")
	degradedGauge   = metrics.Default().Gauge("store.degraded")
	readErrors      = metrics.Default().Counter("store.read.errors")
)

// kindGauges count the entities of the open durable stores by kind:
// store.entities.resident those kept in memory, store.entities.logged
// those read back from the log. Indexed by kind; absent has none.
var kindGauges = [...]*metrics.Gauge{
	resident: metrics.Default().Gauge("store.entities.resident"),
	logged:   metrics.Default().Gauge("store.entities.logged"),
}

// degrade flips the store into read-only mode (caller holds d.mu) and
// raises the process-wide degraded gauge. Idempotent per store: only the
// first degradation counts.
func (d *durability) degrade(reason string) {
	if d.degraded == "" {
		degradedGauge.Add(1)
	}
	d.degraded = reason
}
