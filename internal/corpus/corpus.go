// Package corpus generates the synthetic evaluation datasets that stand in
// for the paper's proprietary collections (crawled product reviews from
// cnet/dpreview/epinions/steves-digicams, general web pages and news
// articles from the WebFountain crawl).
//
// Every generator is deterministic given a seed and emits gold labels per
// (sentence, subject) pair, which is exactly the granularity the paper's
// evaluation uses. The generators reproduce the statistical structure the
// paper reports rather than its surface text:
//
//   - review corpora are dense in sentiment; feature terms are referenced
//     an order of magnitude more often than product names (Table 3);
//   - new features are introduced by definite base noun phrases at
//     sentence starts (the bBNP observation);
//   - a controlled share of sentiment is expressed idiomatically, outside
//     any lexicon's coverage — the source of the paper's 56% recall;
//   - multi-subject sentences carry sentiment about only one subject —
//     the collocation baseline's 18% precision comes from exactly this;
//   - general web/news documents are dominated by the paper's "I class"
//     (ambiguous, off-target, or no sentiment), which collapses
//     statistical classifiers (88.4% -> 38%) but not the sentiment miner.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"webfountain/internal/lexicon"
	"webfountain/internal/spotter"
)

// Label is the gold sentiment of one subject mention within a sentence.
// Polarity is Neutral for mentions that carry no sentiment.
type Label struct {
	// Subject is the canonical subject (product name or feature term).
	Subject string
	// Polarity is the gold sentiment about the subject in this sentence.
	Polarity lexicon.Polarity
	// Detectable marks labels whose construction uses vocabulary and
	// syntax inside the miner's lexicon/pattern coverage. Undetectable
	// polar labels are the deliberate recall gap. (Evaluation code never
	// reads this — it exists for corpus statistics and tests.)
	Detectable bool
}

// Sentence is one generated sentence with its gold labels.
type Sentence struct {
	// Text is the sentence text.
	Text string
	// Labels enumerate every subject mentioned in the sentence with its
	// gold polarity.
	Labels []Label
}

// Document is one generated document.
type Document struct {
	// ID is unique within a corpus.
	ID string
	// Title is the document title.
	Title string
	// Source is the ingestion channel: "review", "web" or "news".
	Source string
	// Domain is the topic domain: "camera", "music", "petroleum",
	// "pharma" or "none" for distractors.
	Domain string
	// DocLabel is the document-level gold sentiment (the review's overall
	// verdict); Neutral for non-review documents.
	DocLabel lexicon.Polarity
	// Date is the publication date (YYYY-MM-DD), spread deterministically
	// across a year so trending analyses have temporal structure.
	Date string
	// Links are IDs of other documents in the same corpus this one links
	// to, forming the hyperlink graph the page-ranking miner consumes.
	Links []string
	// Sentences are the document's sentences in order.
	Sentences []Sentence
}

// stampDateAndLinks assigns a deterministic date and up to three links to
// lower-numbered documents of the same corpus. Month coverage is uniform
// over 2004; earlier documents accumulate more inlinks, giving the link
// graph the skew page ranking expects.
func stampDateAndLinks(d *Document, r *rand.Rand, i int, idFor func(int) string) {
	month := 1 + r.Intn(12)
	day := 1 + r.Intn(28)
	d.Date = fmt.Sprintf("2004-%02d-%02d", month, day)
	if i == 0 {
		return
	}
	n := r.Intn(4)
	for k := 0; k < n; k++ {
		// Preferential attachment: sqrt-skew toward early documents.
		t := r.Intn(i)
		target := (t * t) / maxInt(i, 1) // biased toward low indices
		d.Links = append(d.Links, idFor(target))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Text joins the document's sentences with spaces.
func (d *Document) Text() string {
	parts := make([]string, len(d.Sentences))
	for i, s := range d.Sentences {
		parts[i] = s.Text
	}
	return strings.Join(parts, " ")
}

// GoldFor returns the gold polarity for a subject in sentence sentIdx and
// whether the subject is labeled there at all. Matching is
// case-insensitive.
func (d *Document) GoldFor(sentIdx int, subject string) (lexicon.Polarity, bool) {
	if sentIdx < 0 || sentIdx >= len(d.Sentences) {
		return lexicon.Neutral, false
	}
	subject = strings.ToLower(subject)
	for _, l := range d.Sentences[sentIdx].Labels {
		if strings.ToLower(l.Subject) == subject {
			return l.Polarity, true
		}
	}
	return lexicon.Neutral, false
}

// Stats summarizes a corpus for sanity checks and DESIGN.md shape targets.
type Stats struct {
	Docs, Sentences   int
	PolarLabels       int
	NeutralLabels     int
	DetectablePolar   int
	ProductReferences int
	FeatureReferences int
}

// Measure computes corpus statistics. Products and features classify
// subjects for the reference counts (Table 3).
func Measure(docs []Document, products, features []string) Stats {
	isProduct := make(map[string]bool, len(products))
	for _, p := range products {
		isProduct[strings.ToLower(p)] = true
	}
	isFeature := make(map[string]bool, len(features))
	for _, f := range features {
		isFeature[strings.ToLower(f)] = true
	}
	var st Stats
	st.Docs = len(docs)
	for _, d := range docs {
		st.Sentences += len(d.Sentences)
		for _, s := range d.Sentences {
			for _, l := range s.Labels {
				if l.Polarity == lexicon.Neutral {
					st.NeutralLabels++
				} else {
					st.PolarLabels++
					if l.Detectable {
						st.DetectablePolar++
					}
				}
				ls := strings.ToLower(l.Subject)
				if isProduct[ls] {
					st.ProductReferences++
				}
				if isFeature[ls] {
					st.FeatureReferences++
				}
			}
		}
	}
	return st
}

// SynonymSets builds spotter synonym sets for a list of subject terms,
// one set per term with the term itself as the only variant.
func SynonymSets(terms []string) []spotter.SynonymSet {
	out := make([]spotter.SynonymSet, 0, len(terms))
	for _, t := range terms {
		out = append(out, spotter.SynonymSet{
			ID:        strings.ToLower(t),
			Canonical: t,
			Terms:     []string{t},
		})
	}
	return out
}

// pick returns a uniformly random element.
func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// chance reports true with probability p.
func chance(r *rand.Rand, p float64) bool { return r.Float64() < p }

// docID builds a stable document ID.
func docID(domain, source string, i int) string {
	return fmt.Sprintf("%s-%s-%04d", domain, source, i)
}

// Named returns the generator of the corpus a command line names —
// camera, music, petroleum, pharma, news or bboard — and the canonical
// subjects its documents are written about.
func Named(name string) (gen func(seed int64, n int) []Document, subjects []string, err error) {
	switch name {
	case "camera":
		return DigitalCameraReviews, append(append([]string{}, CameraProducts...), CameraFeatures...), nil
	case "music":
		return MusicReviews, append(append([]string{}, MusicAlbums...), MusicFeatures...), nil
	case "petroleum":
		return PetroleumWeb, PetroleumCompanies, nil
	case "pharma":
		return PharmaWeb, PharmaCompanies, nil
	case "news":
		return PetroleumNews, PetroleumCompanies, nil
	case "bboard":
		return BulletinBoard, CameraProducts, nil
	}
	return nil, nil, fmt.Errorf("unknown corpus %q (want camera, music, petroleum, pharma, news or bboard)", name)
}
