package index

import "webfountain/internal/metrics"

// Package-level metric handles, resolved once; Add and Search are on the
// ingest and query hot paths, so they pay only a clock read per call and
// atomic increments.
var (
	addsTotal     = metrics.Default().Counter("index.adds")
	addNs         = metrics.Default().Histogram("index.add.ns")
	addTokens     = metrics.Default().SizeHistogram("index.add.tokens")
	searchNs      = metrics.Default().Histogram("index.search.ns")
	shardScanNs   = metrics.Default().Histogram("index.regexp.shard.scan.ns")
	postingSizes  = metrics.Default().SizeHistogram("index.posting.len")
	searchExpired = metrics.Default().Counter("index.search.expired")
)
