package miners

import (
	"hash/fnv"
	"sort"

	"webfountain/internal/store"
)

// DuplicateDetector is the corpus-level near-duplicate miner: documents
// are shingled into overlapping k-grams, compressed into minhash
// signatures, and grouped via locality-sensitive banding; candidate pairs
// whose estimated Jaccard similarity clears the threshold are merged into
// duplicate clusters.
type DuplicateDetector struct {
	// ShingleSize is the k-gram length in words (default 4).
	ShingleSize int
	// Signature is the number of minhash functions (default 64; must be
	// divisible by Bands).
	Signature int
	// Bands is the LSH band count (default 16).
	Bands int
	// Threshold is the minimum estimated Jaccard similarity for two
	// documents to count as duplicates (default 0.8).
	Threshold float64

	clusters [][]string
}

// Name identifies the miner.
func (d *DuplicateDetector) Name() string { return "dedup" }

func (d *DuplicateDetector) defaults() {
	if d.ShingleSize == 0 {
		d.ShingleSize = 4
	}
	if d.Signature == 0 {
		d.Signature = 64
	}
	if d.Bands == 0 {
		d.Bands = 16
	}
	if d.Threshold == 0 {
		d.Threshold = 0.8
	}
}

// Run computes duplicate clusters over the whole store.
func (d *DuplicateDetector) Run(st *store.Store) error {
	d.defaults()
	type doc struct {
		id  string
		sig []uint32
	}
	var docs []doc
	err := forEach(st, func(e *store.Entity) error {
		sig := d.signature(e.Text)
		if sig != nil {
			docs = append(docs, doc{id: e.ID, sig: sig})
		}
		return nil
	})
	if err != nil {
		return err
	}

	// LSH banding: documents sharing any band hash are candidates.
	parent := make(map[string]string, len(docs))
	for _, dc := range docs {
		parent[dc.id] = dc.id
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	rows := d.Signature / d.Bands
	buckets := map[uint64][]int{}
	for i, dc := range docs {
		for band := 0; band < d.Bands; band++ {
			h := fnv.New64a()
			var buf [4]byte
			buf[0] = byte(band)
			h.Write(buf[:1])
			for r := 0; r < rows; r++ {
				v := dc.sig[band*rows+r]
				buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				h.Write(buf[:])
			}
			buckets[h.Sum64()] = append(buckets[h.Sum64()], i)
		}
	}
	for _, members := range buckets {
		for i := 1; i < len(members); i++ {
			a, b := docs[members[0]], docs[members[i]]
			if estimateJaccard(a.sig, b.sig) >= d.Threshold {
				union(a.id, b.id)
			}
		}
	}

	groups := map[string][]string{}
	for _, dc := range docs {
		root := find(dc.id)
		groups[root] = append(groups[root], dc.id)
	}
	d.clusters = nil
	for _, g := range groups {
		if len(g) > 1 {
			sort.Strings(g)
			d.clusters = append(d.clusters, g)
		}
	}
	sort.Slice(d.clusters, func(i, j int) bool { return d.clusters[i][0] < d.clusters[j][0] })
	return nil
}

// Clusters returns the duplicate clusters found by the last Run, each
// sorted, clusters ordered by first member.
func (d *DuplicateDetector) Clusters() [][]string { return d.clusters }

// signature computes the minhash signature of a text (nil for texts
// shorter than one shingle).
func (d *DuplicateDetector) signature(text string) []uint32 {
	ws := words(text)
	if len(ws) < d.ShingleSize {
		return nil
	}
	sig := make([]uint32, d.Signature)
	for i := range sig {
		sig[i] = ^uint32(0)
	}
	for i := 0; i+d.ShingleSize <= len(ws); i++ {
		base := fnv.New32a()
		for k := 0; k < d.ShingleSize; k++ {
			base.Write([]byte(ws[i+k]))
			base.Write([]byte{' '})
		}
		h := base.Sum32()
		// Derive the family of hash functions from one FNV value: the
		// classic (a*h + b) universal-hash trick with fixed odd constants.
		for j := range sig {
			v := h*(2*uint32(j)+1) + uint32(j)*0x9e3779b9
			if v < sig[j] {
				sig[j] = v
			}
		}
	}
	return sig
}

// estimateJaccard is the fraction of agreeing signature positions.
func estimateJaccard(a, b []uint32) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}
