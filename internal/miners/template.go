package miners

import (
	"hash/fnv"

	"webfountain/internal/store"
	"webfountain/internal/tokenize"
)

// TemplateDetector is the corpus-level boilerplate miner: a sentence that
// recurs across a large fraction of a host's pages is template material
// (navigation, legal footers, injected ads) rather than content, and
// downstream miners should ignore it. This follows the frequency-based
// idea of the template-detection work the paper builds on.
type TemplateDetector struct {
	// MinDocs is the minimum number of documents a host needs before
	// template detection applies to it (default 5).
	MinDocs int
	// MinShare is the fraction of a host's documents a sentence must
	// appear in to count as template (default 0.5).
	MinShare float64

	// templates maps host -> sentence hash -> true.
	templates map[string]map[uint64]bool
	hostDocs  map[string]int
}

func (t *TemplateDetector) defaults() {
	if t.MinDocs == 0 {
		t.MinDocs = 5
	}
	if t.MinShare == 0 {
		t.MinShare = 0.5
	}
}

// Run computes per-host template sentence sets over the whole store.
func (t *TemplateDetector) Run(st *store.Store) error {
	t.defaults()
	tk := tokenize.New()
	counts := map[string]map[uint64]int{}
	t.hostDocs = map[string]int{}
	err := forEach(st, func(e *store.Entity) error {
		host := e.Host()
		if host == "" {
			return nil
		}
		t.hostDocs[host]++
		hc, ok := counts[host]
		if !ok {
			hc = map[uint64]int{}
			counts[host] = hc
		}
		seen := map[uint64]bool{}
		for _, s := range tk.Sentences(e.Text) {
			h := sentenceHash(s)
			if !seen[h] {
				seen[h] = true
				hc[h]++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.templates = map[string]map[uint64]bool{}
	for host, hc := range counts {
		n := t.hostDocs[host]
		if n < t.MinDocs {
			continue
		}
		set := map[uint64]bool{}
		for h, c := range hc {
			if float64(c) >= t.MinShare*float64(n) {
				set[h] = true
			}
		}
		if len(set) > 0 {
			t.templates[host] = set
		}
	}
	return nil
}

// IsTemplate reports whether a sentence of a host's page is boilerplate.
func (t *TemplateDetector) IsTemplate(host string, s tokenize.Sentence) bool {
	set, ok := t.templates[host]
	if !ok {
		return false
	}
	return set[sentenceHash(s)]
}

// ContentSentences filters an entity's sentences down to non-template
// content.
func (t *TemplateDetector) ContentSentences(e *store.Entity) []tokenize.Sentence {
	host := e.Host()
	var out []tokenize.Sentence
	for _, s := range tokenize.New().Sentences(e.Text) {
		if !t.IsTemplate(host, s) {
			out = append(out, s)
		}
	}
	return out
}

// TemplateCount returns the number of template sentences detected for a
// host.
func (t *TemplateDetector) TemplateCount(host string) int {
	return len(t.templates[host])
}

// sentenceHash hashes the lower-cased word and number sequence of a
// sentence (numbers matter: "visitor 4021" footers differing only by a
// counter are template, but content sentences with distinct figures are
// not — punctuation-only variation is ignored).
func sentenceHash(s tokenize.Sentence) uint64 {
	h := fnv.New64a()
	for _, tok := range s.Tokens {
		if tok.Kind == tokenize.Word || tok.Kind == tokenize.Number {
			h.Write([]byte(tok.Lower()))
			h.Write([]byte{' '})
		}
	}
	return h.Sum64()
}
