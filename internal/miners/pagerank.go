package miners

import (
	"sort"

	"webfountain/internal/store"
)

// PageRank is the corpus-level link-analysis miner: the classic power
// iteration over the entity link graph, with damping and dangling-mass
// redistribution.
type PageRank struct {
	// Damping is the random-jump complement (default 0.85).
	Damping float64
	// MaxIterations bounds the power iteration (default 50).
	MaxIterations int
	// Epsilon is the L1 convergence threshold (default 1e-8).
	Epsilon float64

	scores map[string]float64
	iters  int
}

// Name identifies the miner.
func (p *PageRank) Name() string { return "pagerank" }

func (p *PageRank) defaults() {
	if p.Damping == 0 {
		p.Damping = 0.85
	}
	if p.MaxIterations == 0 {
		p.MaxIterations = 50
	}
	if p.Epsilon == 0 {
		p.Epsilon = 1e-8
	}
}

// Run computes scores over the link graph of the whole store. Links to unknown IDs are ignored.
func (p *PageRank) Run(st *store.Store) error {
	p.defaults()
	ids := st.IDs()
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	out := make([][]int, len(ids))
	err := forEach(st, func(e *store.Entity) error {
		i := idx[e.ID]
		for _, l := range e.Links {
			if j, ok := idx[l]; ok && j != i {
				out[i] = append(out[i], j)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	n := len(ids)
	p.scores = make(map[string]float64, n)
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for p.iters = 0; p.iters < p.MaxIterations; p.iters++ {
		base := (1 - p.Damping) / float64(n)
		dangling := 0.0
		for i := range next {
			next[i] = base
		}
		for i, links := range out {
			if len(links) == 0 {
				dangling += rank[i]
				continue
			}
			share := p.Damping * rank[i] / float64(len(links))
			for _, j := range links {
				next[j] += share
			}
		}
		// Dangling mass spreads uniformly.
		spread := p.Damping * dangling / float64(n)
		delta := 0.0
		for i := range next {
			next[i] += spread
			d := next[i] - rank[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		rank, next = next, rank
		if delta < p.Epsilon {
			p.iters++
			break
		}
	}
	for i, id := range ids {
		p.scores[id] = rank[i]
	}
	return nil
}

// Score returns a document's rank (0 when unknown).
func (p *PageRank) Score(id string) float64 { return p.scores[id] }

// Iterations returns how many power iterations the last Run used.
func (p *PageRank) Iterations() int { return p.iters }

// Ranked is one document with its score.
type Ranked struct {
	ID    string
	Score float64
}

// Top returns the n highest-ranked documents.
func (p *PageRank) Top(n int) []Ranked {
	out := make([]Ranked, 0, len(p.scores))
	for id, s := range p.scores {
		out = append(out, Ranked{ID: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
