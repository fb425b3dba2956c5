package miners

import (
	"math"
	"math/rand"
	"sort"

	"webfountain/internal/stats"
	"webfountain/internal/store"
)

// KMeans is the corpus-level clustering miner: spherical k-means over
// TF-IDF document vectors with deterministic k-means++ seeding.
type KMeans struct {
	// K is the cluster count (default 4).
	K int
	// MaxIterations bounds Lloyd iterations (default 25).
	MaxIterations int
	// Seed makes the k-means++ initialization deterministic.
	Seed int64

	assign map[string]int
	tops   [][]string
	iters  int
}

// Name identifies the miner.
func (k *KMeans) Name() string { return "kmeans" }

func (k *KMeans) defaults() {
	if k.K == 0 {
		k.K = 4
	}
	if k.MaxIterations == 0 {
		k.MaxIterations = 25
	}
}

// sparse is a unit-normalized sparse vector.
type sparse map[string]float64

func (v sparse) dot(u sparse) float64 {
	if len(u) < len(v) {
		v, u = u, v
	}
	s := 0.0
	for t, x := range v {
		s += x * u[t]
	}
	return s
}

func (v sparse) normalize() {
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for t := range v {
		v[t] /= n
	}
}

// Run clusters every document of the store.
func (k *KMeans) Run(st *store.Store) error {
	k.defaults()
	// Pass 1: document frequencies.
	df := map[string]int{}
	var ids []string
	var docWords [][]string
	err := forEach(st, func(e *store.Entity) error {
		ws := words(e.Text)
		ids = append(ids, e.ID)
		docWords = append(docWords, ws)
		seen := map[string]bool{}
		for _, w := range ws {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := len(ids)
	k.assign = make(map[string]int, n)
	if n == 0 {
		k.tops = nil
		return nil
	}
	if k.K > n {
		k.K = n
	}

	// TF-IDF vectors, unit length.
	vecs := make([]sparse, n)
	for i, ws := range docWords {
		v := sparse{}
		counts := map[string]int{}
		for _, w := range ws {
			counts[w]++
		}
		for t, c := range counts {
			w := stats.TFIDF(c, len(ws), df[t], n)
			if w > 0 {
				v[t] = w
			}
		}
		v.normalize()
		vecs[i] = v
	}

	centroids := k.seedCentroids(vecs)
	assign := make([]int, n)
	for k.iters = 0; k.iters < k.MaxIterations; k.iters++ {
		changed := false
		for i, v := range vecs {
			best, bestSim := assign[i], -1.0
			for c, cen := range centroids {
				if sim := v.dot(cen); sim > bestSim {
					best, bestSim = c, sim
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed && k.iters > 0 {
			break
		}
		// Recompute centroids.
		sums := make([]sparse, k.K)
		for c := range sums {
			sums[c] = sparse{}
		}
		for i, v := range vecs {
			cen := sums[assign[i]]
			for t, x := range v {
				cen[t] += x
			}
		}
		for c := range sums {
			sums[c].normalize()
			if len(sums[c]) > 0 {
				centroids[c] = sums[c]
			}
		}
	}

	for i, id := range ids {
		k.assign[id] = assign[i]
	}
	// Top terms per cluster from the final centroids.
	k.tops = make([][]string, k.K)
	for c, cen := range centroids {
		type tw struct {
			t string
			w float64
		}
		var list []tw
		for t, w := range cen {
			list = append(list, tw{t, w})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].w != list[j].w {
				return list[i].w > list[j].w
			}
			return list[i].t < list[j].t
		})
		for i := 0; i < 8 && i < len(list); i++ {
			k.tops[c] = append(k.tops[c], list[i].t)
		}
	}
	return nil
}

// seedCentroids is deterministic k-means++: the first centroid is the
// first document; each next centroid is the document farthest (in cosine
// distance) from its nearest chosen centroid, with the Seed breaking
// exact ties.
func (k *KMeans) seedCentroids(vecs []sparse) []sparse {
	r := rand.New(rand.NewSource(k.Seed + 1))
	centroids := make([]sparse, 0, k.K)
	first := r.Intn(len(vecs))
	centroids = append(centroids, clone(vecs[first]))
	for len(centroids) < k.K {
		bestIdx, bestDist := 0, -1.0
		for i, v := range vecs {
			nearest := -1.0
			for _, c := range centroids {
				if sim := v.dot(c); sim > nearest {
					nearest = sim
				}
			}
			dist := 1 - nearest
			if dist > bestDist {
				bestIdx, bestDist = i, dist
			}
		}
		centroids = append(centroids, clone(vecs[bestIdx]))
	}
	return centroids
}

func clone(v sparse) sparse {
	out := make(sparse, len(v))
	for t, x := range v {
		out[t] = x
	}
	return out
}

// Cluster returns the cluster index of a document (-1 when unknown).
func (k *KMeans) Cluster(id string) int {
	c, ok := k.assign[id]
	if !ok {
		return -1
	}
	return c
}

// TopTerms returns the highest-weight centroid terms of a cluster.
func (k *KMeans) TopTerms(cluster int) []string {
	if cluster < 0 || cluster >= len(k.tops) {
		return nil
	}
	return k.tops[cluster]
}

// Sizes returns the number of documents per cluster.
func (k *KMeans) Sizes() []int {
	out := make([]int, k.K)
	for _, c := range k.assign {
		out[c]++
	}
	return out
}
