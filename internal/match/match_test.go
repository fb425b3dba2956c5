package match

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// scanAll collects every match of the automaton over a word slice.
func scanAll(m *Matcher, words []string) []Match {
	var out []Match
	m.Scan(len(words), func(i int) uint32 { return m.Sym(words[i]) }, func(mt Match) {
		out = append(out, mt)
	})
	return out
}

func TestScanBasics(t *testing.T) {
	m := Compile([]string{
		"clie",           // 0
		"sony clie",      // 1
		"t series clies", // 2
		"series",         // 3
	})

	words := strings.Fields("the Sony CLIE beats the T series CLIEs hands down")
	got := scanAll(m, words)
	want := []Match{
		{Pattern: 1, Start: 1, End: 3}, // sony clie (longer first at equal end)
		{Pattern: 0, Start: 2, End: 3}, // clie
		{Pattern: 3, Start: 6, End: 7}, // series
		{Pattern: 2, Start: 5, End: 8}, // t series clies
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan: got %v want %v", got, want)
	}
}

func TestScanOverlapsAndSuffixes(t *testing.T) {
	m := Compile([]string{
		"a b a", // 0
		"b a",   // 1
		"a",     // 2
	})
	words := []string{"a", "b", "a", "b", "a"}
	got := scanAll(m, words)
	// ends at 1: a; ends at 3: aba, ba, a; ends at 5: aba, ba, a.
	want := []Match{
		{2, 0, 1},
		{0, 0, 3}, {1, 1, 3}, {2, 2, 3},
		{0, 2, 5}, {1, 3, 5}, {2, 4, 5},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan: got %v want %v", got, want)
	}
}

func TestCaseFolding(t *testing.T) {
	m := Compile([]string{"Battery LIFE"})
	for _, probe := range [][]string{
		{"battery", "life"},
		{"BATTERY", "LIFE"},
		{"Battery", "Life"},
	} {
		if got := scanAll(m, probe); len(got) != 1 || got[0].Start != 0 || got[0].End != 2 {
			t.Fatalf("probe %v: got %v", probe, got)
		}
	}
	if m.Sym("battery") == 0 || m.Sym("BaTTeRy") != m.Sym("battery") {
		t.Fatalf("Sym is not fold-insensitive")
	}
	if m.Sym("charger") != 0 {
		t.Fatalf("unknown word must map to symbol 0")
	}
}

func TestWalkAtLongest(t *testing.T) {
	m := Compile([]string{
		"battery",           // 0
		"battery life",      // 1
		"battery life woes", // 2
		"life",              // 3
	})
	words := []string{"the", "battery", "life", "woes", "continue"}
	sym := func(i int) uint32 { return m.Sym(words[i]) }

	var seen []int
	m.WalkAt(len(words), 1, sym, func(p, l int) bool {
		seen = append(seen, p)
		return true
	})
	if fmt.Sprint(seen) != "[0 1 2]" {
		t.Fatalf("WalkAt visited %v", seen)
	}
	p, l, ok := m.LongestAt(len(words), 1, sym)
	if !ok || p != 2 || l != 3 {
		t.Fatalf("LongestAt = %d,%d,%v", p, l, ok)
	}
	if _, _, ok := m.LongestAt(len(words), 0, sym); ok {
		t.Fatalf("no pattern starts at 'the'")
	}
	// "life" alone starts at 2 even though it is also a suffix of
	// "battery life": suffix outputs must not leak into WalkAt.
	p, l, ok = m.LongestAt(len(words), 2, sym)
	if !ok || p != 3 || l != 1 {
		t.Fatalf("LongestAt(2) = %d,%d,%v", p, l, ok)
	}
}

func TestEmptyMatcher(t *testing.T) {
	m := Compile(nil)
	if got := scanAll(m, []string{"anything", "at", "all"}); len(got) != 0 {
		t.Fatalf("empty matcher matched %v", got)
	}
	if _, _, ok := m.LongestAt(3, 0, func(int) uint32 { return 0 }); ok {
		t.Fatalf("empty matcher LongestAt matched")
	}
}

// TestDifferentialVsNaive cross-checks the automaton against a naive
// O(n*patterns) scanner on random texts over a small alphabet, where
// overlap and suffix-sharing cases are dense.
func TestDifferentialVsNaive(t *testing.T) {
	alphabet := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var pats [][]string
		var phrases []string
		for p := 0; p < 12; p++ {
			n := 1 + rng.Intn(3)
			pat := make([]string, n)
			for i := range pat {
				pat[i] = alphabet[rng.Intn(len(alphabet))]
			}
			pats = append(pats, pat)
			phrases = append(phrases, strings.Join(pat, " "))
		}
		m := Compile(phrases)
		words := make([]string, 30)
		for i := range words {
			words[i] = alphabet[rng.Intn(len(alphabet))]
		}

		var want []Match
		for pi, pat := range pats {
			for i := 0; i+len(pat) <= len(words); i++ {
				hit := true
				for k := range pat {
					if words[i+k] != pat[k] {
						hit = false
						break
					}
				}
				if hit {
					want = append(want, Match{Pattern: pi, Start: i, End: i + len(pat)})
				}
			}
		}
		got := scanAll(m, words)
		canon := func(ms []Match) string {
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].Start != ms[j].Start {
					return ms[i].Start < ms[j].Start
				}
				if ms[i].End != ms[j].End {
					return ms[i].End < ms[j].End
				}
				return ms[i].Pattern < ms[j].Pattern
			})
			return fmt.Sprint(ms)
		}
		if canon(got) != canon(want) {
			t.Fatalf("trial %d: got %v want %v (patterns %v, words %v)",
				trial, got, want, pats, words)
		}
	}
}

func TestScanAllocs(t *testing.T) {
	m := Compile([]string{"sony clie", "battery life", "nr70"})
	words := strings.Fields("The Sony CLIE NR70 has Battery Life issues says SONY")
	sink := 0
	avg := testing.AllocsPerRun(100, func() {
		m.Scan(len(words), func(i int) uint32 { return m.Sym(words[i]) }, func(mt Match) {
			sink += mt.Pattern
		})
	})
	if avg != 0 {
		t.Fatalf("Scan allocates %.1f per run, want 0", avg)
	}
	_ = sink
}
