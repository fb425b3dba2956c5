// Package serve is the live serving tier: the read-side machinery that
// turns the mined corpus into a serving workload — the paper's
// reputation-management scenario, where analysts and dashboards query
// sentiment continuously rather than once per batch job.
//
// The package holds four pieces, composed by the HTTP gateway:
//
//   - Aggregates: incrementally-maintained materialized sentiment
//     aggregates (per subject × feature × polarity × time bucket) and
//     each subject's sentiment entries, updated online at ingest and
//     read through immutable lock-free snapshots, so no query ever
//     re-scans the corpus.
//   - Cache: a bounded LRU over rendered responses, invalidated on
//     ingest through the aggregate generation number.
//   - Limiter: per-tenant token-bucket rate limiting.
//   - Gateway: the HTTP/JSON query API over a Backend.
//
// Everything is stdlib-only and safe for concurrent use.
package serve

import "math"

// Counts is a positive/negative mention tally — the polarity dimension
// of every aggregate cell.
type Counts struct {
	Positive int `json:"positive"`
	Negative int `json:"negative"`
}

// Total returns the number of polar mentions.
func (c Counts) Total() int { return c.Positive + c.Negative }

// Share returns the positive share as a rounded percentage (0 when
// empty). Rounding matters at the margins: integer flooring renders a
// 99.9% share as 99 and a 0.1% negative share as a spotless 100 — the
// overview page and the aggregate layer share this one method so they
// can never disagree.
func (c Counts) Share() int {
	if c.Total() == 0 {
		return 0
	}
	return int(math.Round(100 * float64(c.Positive) / float64(c.Total())))
}
