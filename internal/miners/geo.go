package miners

import (
	"sort"
	"strings"

	"webfountain/internal/spotter"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

// gazetteer maps place variants to a canonical place and its region. It
// stands in for the geographic database of the paper's geographic context
// discoverer [McCurley 2002].
type gazetteerEntry struct {
	canonical string
	region    string
	variants  []string
}

var gazetteer = []gazetteerEntry{
	{"United States", "north-america", []string{"United States", "U.S.", "USA", "America"}},
	{"Canada", "north-america", []string{"Canada"}},
	{"Mexico", "north-america", []string{"Mexico"}},
	{"United Kingdom", "europe", []string{"United Kingdom", "U.K.", "Britain", "England"}},
	{"Germany", "europe", []string{"Germany"}},
	{"France", "europe", []string{"France"}},
	{"Italy", "europe", []string{"Italy"}},
	{"Spain", "europe", []string{"Spain"}},
	{"Norway", "europe", []string{"Norway"}},
	{"Netherlands", "europe", []string{"Netherlands", "Holland"}},
	{"Russia", "europe", []string{"Russia"}},
	{"Japan", "asia", []string{"Japan", "Tokyo"}},
	{"China", "asia", []string{"China", "Beijing", "Shanghai"}},
	{"India", "asia", []string{"India"}},
	{"Singapore", "asia", []string{"Singapore"}},
	{"Saudi Arabia", "middle-east", []string{"Saudi Arabia", "Riyadh"}},
	{"Kuwait", "middle-east", []string{"Kuwait"}},
	{"Nigeria", "africa", []string{"Nigeria"}},
	{"Brazil", "south-america", []string{"Brazil"}},
	{"Venezuela", "south-america", []string{"Venezuela"}},
	{"Australia", "oceania", []string{"Australia", "Sydney"}},
	{"New York", "north-america", []string{"New York", "New York City"}},
	{"California", "north-america", []string{"California", "San Jose", "San Francisco", "Los Angeles"}},
	{"Texas", "north-america", []string{"Texas", "Houston", "Dallas"}},
	{"Alaska", "north-america", []string{"Alaska"}},
	{"London", "europe", []string{"London"}},
	{"Paris", "europe", []string{"Paris"}},
	{"Gulf of Mexico", "north-america", []string{"Gulf of Mexico"}},
	{"North Sea", "europe", []string{"North Sea"}},
}

// GeoMinerName is the annotation name the geographic miner writes.
const GeoMinerName = "geo"

// GeoContext is the geographic context discoverer: an entity-level miner
// that spots gazetteer places in the text and annotates each entity with
// the places and its dominant region.
type GeoContext struct {
	sp      *spotter.Spotter
	regions map[string]string // place ID -> region
	tk      *tokenize.Tokenizer
}

// NewGeoContext compiles the embedded gazetteer.
func NewGeoContext() *GeoContext {
	sets := make([]spotter.SynonymSet, 0, len(gazetteer))
	regions := make(map[string]string, len(gazetteer))
	for _, g := range gazetteer {
		id := strings.ToLower(g.canonical)
		sets = append(sets, spotter.SynonymSet{ID: id, Canonical: g.canonical, Terms: g.variants})
		regions[id] = g.region
	}
	return &GeoContext{sp: spotter.New(sets), regions: regions, tk: tokenize.New()}
}

// Process returns the annotations the miner attaches to e: one "place"
// annotation per spot plus a single "region" annotation for the
// dominant region, each carrying GeoMinerName. It does not retain or
// mutate e.
func (g *GeoContext) Process(e *store.Entity) []store.Annotation {
	sents := g.tk.Sentences(e.Text)
	var anns []store.Annotation
	regionCounts := map[string]int{}
	for _, s := range sents {
		for _, sp := range g.sp.SpotTokens(s.Tokens) {
			anns = append(anns, store.Annotation{
				Miner:    GeoMinerName,
				Type:     "place",
				Key:      sp.SetID,
				Sentence: s.Index,
				Start:    sp.Start,
				End:      sp.End,
			})
			regionCounts[g.regions[sp.SetID]]++
		}
	}
	if region, n := dominant(regionCounts); n > 0 {
		anns = append(anns, store.Annotation{Miner: GeoMinerName, Type: "region", Key: region, Sentence: -1})
	}
	return anns
}

// Places extracts the distinct places a processed entity mentions, from
// its annotations.
func Places(e *store.Entity) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range e.AnnotationsBy(GeoMinerName) {
		if a.Type == "place" && !seen[a.Key] {
			seen[a.Key] = true
			out = append(out, a.Key)
		}
	}
	sort.Strings(out)
	return out
}

// Region returns a processed entity's dominant region ("" if none).
func Region(e *store.Entity) string {
	for _, a := range e.AnnotationsBy(GeoMinerName) {
		if a.Type == "region" {
			return a.Key
		}
	}
	return ""
}

func dominant(counts map[string]int) (string, int) {
	best, bestN := "", 0
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic tie-break
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best, bestN
}
