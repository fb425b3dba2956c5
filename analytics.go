package webfountain

import (
	"fmt"

	"webfountain/internal/miners"
	"webfountain/internal/store"
)

// AnalyticsConfig tunes the standard miner suite.
type AnalyticsConfig struct {
	// TopTerms is how many corpus-wide top terms to report (default 20).
	TopTerms int
	// DuplicateThreshold is the minhash Jaccard threshold for duplicate
	// clustering (default 0.8).
	DuplicateThreshold float64
	// Clusters is k for document clustering; 0 disables clustering.
	Clusters int
	// PageRankTop is how many top-ranked documents to report (default 10).
	PageRankTop int
}

// CorpusStats are corpus-wide aggregates.
type CorpusStats struct {
	Documents    int
	Tokens       int
	Vocabulary   int
	AvgDocTokens float64
	BySource     map[string]int
	TopTerms     []TermCount
}

// TermCount is a term with its corpus frequency.
type TermCount struct {
	Term  string
	Count int
}

// RankedDocument is one document with its link-graph score.
type RankedDocument struct {
	ID    string
	Score float64
}

// DocumentCluster is one k-means cluster.
type DocumentCluster struct {
	// Size is the number of member documents.
	Size int
	// TopTerms characterize the cluster's centroid.
	TopTerms []string
}

// AnalyticsReport is the output of the standard miner suite.
type AnalyticsReport struct {
	// Stats are the corpus aggregates.
	Stats CorpusStats
	// DuplicateClusters groups near-duplicate document IDs.
	DuplicateClusters [][]string
	// TopRanked are the highest PageRank documents.
	TopRanked []RankedDocument
	// Regions counts documents per dominant geographic region.
	Regions map[string]int
	// Clusters describes the k-means document clusters (empty when
	// clustering was disabled).
	Clusters []DocumentCluster
}

// RunAnalytics runs the platform's standard miner suite — the
// geographic context discoverer over each stored document (mineGeo),
// then aggregate statistics, duplicate detection, page ranking and
// optional clustering over the whole store, in that order — and returns
// the combined report. It stops at the first miner that fails.
func (p *Platform) RunAnalytics(cfg AnalyticsConfig) (*AnalyticsReport, error) {
	if cfg.PageRankTop == 0 {
		cfg.PageRankTop = 10
	}
	if err := p.mineGeo(miners.NewGeoContext()); err != nil {
		return nil, fmt.Errorf("webfountain: analytics: %w", err)
	}
	agg := &miners.AggregateStats{TopK: cfg.TopTerms}
	dd := &miners.DuplicateDetector{Threshold: cfg.DuplicateThreshold}
	pr := &miners.PageRank{}
	corpusMiners := []interface {
		Name() string
		Run(*store.Store) error
	}{agg, dd, pr}
	var km *miners.KMeans
	if cfg.Clusters > 0 {
		km = &miners.KMeans{K: cfg.Clusters}
		corpusMiners = append(corpusMiners, km)
	}
	for _, cm := range corpusMiners {
		if err := cm.Run(p.internalStore()); err != nil {
			return nil, fmt.Errorf("webfountain: analytics: corpus miner %s: %w", cm.Name(), err)
		}
	}

	report := &AnalyticsReport{
		Stats: CorpusStats{
			Documents:    agg.Documents,
			Tokens:       agg.Tokens,
			Vocabulary:   agg.Vocabulary,
			AvgDocTokens: agg.AvgDocTokens,
			BySource:     agg.BySource,
		},
		DuplicateClusters: dd.Clusters(),
		Regions:           map[string]int{},
	}
	for _, tc := range agg.TopTerms {
		report.Stats.TopTerms = append(report.Stats.TopTerms, TermCount{Term: tc.Term, Count: tc.Count})
	}
	for _, r := range pr.Top(cfg.PageRankTop) {
		report.TopRanked = append(report.TopRanked, RankedDocument{ID: r.ID, Score: r.Score})
	}
	_ = p.internalStore().ForEach(func(e *store.Entity) error {
		if region := miners.Region(e); region != "" {
			report.Regions[region]++
		}
		return nil
	})
	if km != nil {
		for c, size := range km.Sizes() {
			report.Clusters = append(report.Clusters, DocumentCluster{
				Size:     size,
				TopTerms: km.TopTerms(c),
			})
		}
	}
	return report, nil
}

// mineGeo annotates each stored document that carries no geographic
// annotation yet with its places and dominant region (mineStored's
// write-back rule), so running it again leaves the store as it is.
func (p *Platform) mineGeo(geo *miners.GeoContext) error {
	for _, d := range mineStored(p, miners.GeoMinerName, func(e *store.Entity, annotated bool) (struct{}, []store.Annotation) {
		if annotated {
			return struct{}{}, nil
		}
		return struct{}{}, geo.Process(e)
	}) {
		if d.err != nil {
			return fmt.Errorf("geo miner: %s: annotation write-back: %w", d.id, d.err)
		}
	}
	return nil
}

// TrendPoint is one month of a subject's sentiment series.
type TrendPoint struct {
	// Month is "YYYY-MM".
	Month string
	// Positive and Negative are the month's polar mention counts.
	Positive, Negative int
}

// SentimentTrend computes a subject's monthly sentiment series from the
// sentiment annotations a SentimentMiner's Run (or the serving tier)
// wrote, bucketed by the documents' dates. Momentum is the change in
// positive share between the first and second half of the series (0
// with ok=false when there is not enough data).
func (p *Platform) SentimentTrend(subject string) (series []TrendPoint, momentum float64, ok bool) {
	tr := &miners.Trend{SentimentMiner: MinerName}
	if err := tr.Run(p.internalStore()); err != nil {
		return nil, 0, false
	}
	for _, pt := range tr.Series(subject) {
		series = append(series, TrendPoint{Month: pt.Month, Positive: pt.Positive, Negative: pt.Negative})
	}
	momentum, ok = tr.Momentum(subject)
	return series, momentum, ok
}
