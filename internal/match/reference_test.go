package match_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"webfountain/internal/corpus"
	"webfountain/internal/lexicon"
	"webfountain/internal/match"
	"webfountain/internal/tokenize"
)

// referencePatterns is every phrase the process compiles: each lexicon
// term and each corpus subject, tokenized as the spotter registers it.
func referencePatterns(t *testing.T) []string {
	t.Helper()
	pats := lexicon.Default().Terms()
	tk := tokenize.New()
	for _, name := range []string{"camera", "music", "petroleum", "pharma", "news", "bboard"} {
		_, subjects, err := corpus.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subjects {
			var words []string
			for _, tok := range tk.Tokenize(strings.ToLower(s)) {
				words = append(words, tok.Text)
			}
			pats = append(pats, strings.Join(words, " "))
		}
	}
	return pats
}

// naiveAt returns the patterns whose words equal words[i:], compared
// case-insensitively one by one.
func naiveAt(pats [][]string, words []string, i int) []match.Match {
	var out []match.Match
	for p, pw := range pats {
		if len(pw) == 0 || i+len(pw) > len(words) {
			continue
		}
		hit := true
		for k, w := range pw {
			if !strings.EqualFold(words[i+k], w) {
				hit = false
				break
			}
		}
		if hit {
			out = append(out, match.Match{Pattern: p, Start: i, End: i + len(pw)})
		}
	}
	return out
}

// TestCompileMatchesNaiveOverResources checks the automaton built from
// the real resources against a naive comparison with the pattern list,
// over random token sequences made of whole phrases, single words of
// every phrase and unknown words, in mixed case. Scan must report
// exactly the naive matches, by end position, longer first, duplicates
// in pattern order; WalkAt at each position must visit the lowest-index
// pattern of each matching length, shortest first.
func TestCompileMatchesNaiveOverResources(t *testing.T) {
	phrases := referencePatterns(t)
	m := match.Compile(phrases)
	pats := make([][]string, len(phrases))
	var vocab []string
	for i, p := range phrases {
		pats[i] = strings.Fields(p)
		vocab = append(vocab, pats[i]...)
	}
	unknown := []string{"zzyzx", "the", "Frobnicate", ",", "nr-71", "battery-life"}
	rng := rand.New(rand.NewSource(20050405))
	for trial := 0; trial < 400; trial++ {
		var words []string
		for len(words) < 24 {
			switch r := rng.Intn(10); {
			case r < 4:
				words = append(words, pats[rng.Intn(len(pats))]...)
			case r < 8:
				words = append(words, vocab[rng.Intn(len(vocab))])
			default:
				words = append(words, unknown[rng.Intn(len(unknown))])
			}
		}
		for i, w := range words {
			switch rng.Intn(4) {
			case 0:
				words[i] = strings.ToUpper(w)
			case 1:
				words[i] = strings.ToUpper(w[:1]) + w[1:]
			}
		}
		sym := func(i int) uint32 { return m.Sym(words[i]) }

		var want []match.Match
		for i := range words {
			want = append(want, naiveAt(pats, words, i)...)
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].End != want[b].End {
				return want[a].End < want[b].End
			}
			if want[a].Start != want[b].Start {
				return want[a].Start < want[b].Start
			}
			return want[a].Pattern < want[b].Pattern
		})
		var got []match.Match
		m.Scan(len(words), sym, func(mt match.Match) { got = append(got, mt) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Scan over %q\n got %v\nwant %v", trial, words, got, want)
		}

		for i := range words {
			var walked, first []match.Match
			m.WalkAt(len(words), i, sym, func(p, l int) bool {
				walked = append(walked, match.Match{Pattern: p, Start: i, End: i + l})
				return true
			})
			for _, mt := range naiveAt(pats, words, i) {
				k := sort.Search(len(first), func(k int) bool { return first[k].End >= mt.End })
				if k == len(first) || first[k].End != mt.End {
					first = append(first[:k], append([]match.Match{mt}, first[k:]...)...)
				}
			}
			if fmt.Sprint(walked) != fmt.Sprint(first) {
				t.Fatalf("trial %d: WalkAt(%d) over %q\n got %v\nwant %v", trial, i, words, walked, first)
			}
		}
	}
}
