// Package lexicon implements the sentiment lexicon: the dictionary that
// defines the sentiment polarity of individual words and multi-word terms.
//
// Entries follow the paper's format
//
//	<lexical_entry> <POS> <sent_category>
//
// for example
//
//	"excellent" JJ +
//
// where lexical_entry is a (possibly multi-word) term, POS is the required
// Penn Treebank tag of the entry, and sent_category is + or -.
//
// The paper merged ~3000 manually validated entries from the General
// Inquirer, the Dictionary of Affect in Language and WordNet. Those
// resources are not shipped here; instead the package embeds a hand-curated
// lexicon of the same form (see data.go) and can load additional entries
// from any reader. Deliberate coverage gaps are part of the reproduction:
// the paper's 56% recall stems from sentiment expressions the lexicon and
// pattern database do not cover.
package lexicon

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"webfountain/internal/match"
	"webfountain/internal/pos"
)

// Polarity is a sentiment orientation.
type Polarity int

// Polarity values. Neutral is the zero value.
const (
	Neutral  Polarity = 0
	Positive Polarity = 1
	Negative Polarity = -1
)

// String renders the paper's +/- notation (0 for neutral).
func (p Polarity) String() string {
	switch p {
	case Positive:
		return "+"
	case Negative:
		return "-"
	}
	return "0"
}

// Flip returns the opposite polarity; Neutral flips to Neutral.
func (p Polarity) Flip() Polarity { return -p }

// Entry is one sentiment lexicon entry.
type Entry struct {
	// Term is the lower-cased lexical entry, possibly multi-word.
	Term string
	// POS is the required part-of-speech tag. The zero POS matches any tag.
	POS pos.Tag
	// Pol is the sentiment category.
	Pol Polarity
}

// Lexicon maps (term, POS) to polarity. Multi-word terms are supported via
// LookupPhrase.
//
// A lexicon is not safe for concurrent mutation, but once fully loaded it
// may be shared freely across goroutines: the phrase trie backing
// LookupPhrase is built lazily behind an atomic pointer, and Add
// invalidates it.
type Lexicon struct {
	// entries maps term -> list of (POS, polarity) readings.
	entries map[string][]Entry
	// maxWords is the longest multi-word entry length, for phrase lookup.
	maxWords int

	// trie is the lazily compiled phrase automaton; nil after any Add
	// until the next LookupPhrase rebuilds it.
	trie    atomic.Pointer[phraseTrie]
	buildMu sync.Mutex
}

// phraseTrie is the compiled longest-match automaton over every entry
// term, mapping the matcher's pattern IDs back to entry keys.
type phraseTrie struct {
	m *match.Matcher
	// terms[pattern] is the entry key the pattern was compiled from: its
	// words joined by single spaces, exactly the key the scan-time probe
	// must use, matching the old ToLower+Join candidate construction.
	terms []string
}

// New returns an empty lexicon.
func New() *Lexicon {
	return &Lexicon{entries: make(map[string][]Entry)}
}

// Default returns a lexicon populated with the embedded entries: the core
// set (data.go) plus the extended General Inquirer / DAL-style long tail
// (data_extended.go). The entry map is sized once, and every term's
// readings are carved from one backing array instead of one slice each.
func Default() *Lexicon {
	groups := slices.Concat(coreGroups, extendedGroups)
	n := 0
	for _, g := range groups {
		n += len(g.terms)
	}
	lx := &Lexicon{entries: make(map[string][]Entry, n)}
	// Room for every entry plus a move for each term that gains a second
	// reading (a few dozen of the ~1 900 terms do); past that, append
	// reallocates and only the saving is lost.
	arena := make([]Entry, 0, n+n/8)
	for _, g := range groups {
		for _, term := range g.terms {
			arena = lx.add(Entry{Term: term, POS: g.tag, Pol: g.pol}, arena)
		}
	}
	return lx
}

var shared = sync.OnceValue(func() *Lexicon {
	lx := Default()
	lx.phraseTrie() // compile eagerly so first lookups don't pay for it
	return lx
})

// Shared returns a process-wide lexicon of the embedded entries with its
// phrase automaton pre-compiled. Callers must treat it as read-only;
// anyone needing extra entries builds their own via Default + Add/Load.
func Shared() *Lexicon { return shared() }

// Add inserts an entry. Later entries with the same (term, POS) override
// earlier ones.
func (lx *Lexicon) Add(e Entry) { lx.add(e, nil) }

// add is Add with the term's reading list placed at the end of arena,
// which it returns: a new term's list, or a list that gains a reading,
// moves there. With a nil arena each list is its own allocation. Lists
// are capped at their length, so growing one never writes into the
// next.
func (lx *Lexicon) add(e Entry, arena []Entry) []Entry {
	e.Term = strings.ToLower(e.Term)
	words := strings.Count(e.Term, " ") + 1
	if words > lx.maxWords {
		lx.maxWords = words
	}
	lx.trie.Store(nil) // entry set changed; rebuild the trie on next use
	list := lx.entries[e.Term]
	for i, old := range list {
		if old.POS == e.POS {
			list[i] = e
			return arena
		}
	}
	start := len(arena)
	arena = append(append(arena, list...), e)
	lx.entries[e.Term] = arena[start:len(arena):len(arena)]
	return arena
}

// Len returns the number of distinct terms in the lexicon.
func (lx *Lexicon) Len() int { return len(lx.entries) }

// Terms returns the lexicon's distinct entry terms, in no particular
// order.
func (lx *Lexicon) Terms() []string {
	terms := make([]string, 0, len(lx.entries))
	for term := range lx.entries {
		terms = append(terms, term)
	}
	return terms
}

// MaxWords returns the longest entry length in words.
func (lx *Lexicon) MaxWords() int { return lx.maxWords }

// Lookup returns the polarity of term under the given POS tag. A tag-less
// entry (POS == 0) matches any tag; noun-tag entries match all noun tags,
// adjective entries all adjective grades, and verb entries all inflections,
// mirroring how the paper's tagger-agnostic entries behave.
func (lx *Lexicon) Lookup(term string, tag pos.Tag) (Polarity, bool) {
	return lx.LookupLower(strings.ToLower(term), tag)
}

// LookupLower is Lookup for a term that is already lower-cased (entry
// keys, trie terms and verb lemmas are), skipping the ToLower scan on the
// hot path.
func (lx *Lexicon) LookupLower(term string, tag pos.Tag) (Polarity, bool) {
	list, ok := lx.entries[term]
	if !ok {
		return Neutral, false
	}
	var wildcard *Entry
	for i := range list {
		e := &list[i]
		if e.POS == 0 {
			wildcard = e
			continue
		}
		if tagsCompatible(e.POS, tag) {
			return e.Pol, true
		}
	}
	if wildcard != nil {
		return wildcard.Pol, true
	}
	return Neutral, false
}

// LookupAny returns the polarity of term under any POS.
func (lx *Lexicon) LookupAny(term string) (Polarity, bool) {
	list, ok := lx.entries[strings.ToLower(term)]
	if !ok || len(list) == 0 {
		return Neutral, false
	}
	return list[0].Pol, true
}

// tagsCompatible reports whether a lexicon POS class covers a concrete tag.
func tagsCompatible(entry, actual pos.Tag) bool {
	if entry == actual {
		return true
	}
	switch entry {
	case pos.JJ:
		// Participles in adjectival positions ("impressed", "polished")
		// count as adjectives for sentiment purposes.
		return actual.IsAdjective() || actual == pos.VBN || actual == pos.VBG
	case pos.NN:
		return actual.IsNoun()
	case pos.VB:
		return actual.IsVerb()
	case pos.RB:
		return actual.IsAdverb()
	}
	return false
}

// comparativeBase maps irregular comparative/superlative forms to their
// base adjective.
var comparativeBase = map[string]string{
	"better": "good", "best": "good",
	"worse": "bad", "worst": "bad",
	"finer": "fine", "finest": "fine",
}

// LookupComparative resolves a comparative or superlative adjective to its
// base form's polarity: "sharper" -> "sharp", "better" -> "good". It
// returns false for words that are not recognizable comparatives of
// lexicon entries.
func (lx *Lexicon) LookupComparative(word string) (Polarity, bool) {
	lw := strings.ToLower(word)
	if base, ok := comparativeBase[lw]; ok {
		return lx.Lookup(base, pos.JJ)
	}
	try := func(base string) (Polarity, bool) {
		if pol, ok := lx.Lookup(base, pos.JJ); ok {
			return pol, true
		}
		return Neutral, false
	}
	for _, suf := range []string{"er", "est"} {
		if !strings.HasSuffix(lw, suf) || len(lw) <= len(suf)+2 {
			continue
		}
		stem := lw[:len(lw)-len(suf)]
		if pol, ok := try(stem); ok { // sharp-er
			return pol, true
		}
		if pol, ok := try(stem + "e"); ok { // nic-er -> nice
			return pol, true
		}
		if strings.HasSuffix(stem, "i") {
			if pol, ok := try(stem[:len(stem)-1] + "y"); ok { // happi-er -> happy
				return pol, true
			}
		}
		if len(stem) >= 2 && stem[len(stem)-1] == stem[len(stem)-2] {
			if pol, ok := try(stem[:len(stem)-1]); ok { // bigg-er -> big
				return pol, true
			}
		}
	}
	return Neutral, false
}

// phraseTrie returns the compiled phrase automaton, building it on first
// use (and after every Add). Concurrent readers race only on the atomic
// pointer; the build itself is serialized.
func (lx *Lexicon) phraseTrie() *phraseTrie {
	if t := lx.trie.Load(); t != nil {
		return t
	}
	lx.buildMu.Lock()
	defer lx.buildMu.Unlock()
	if t := lx.trie.Load(); t != nil {
		return t
	}
	terms := lx.Terms()
	t := &phraseTrie{terms: terms[:0]} // filtered in place
	for _, term := range terms {
		// A match is probed by its words joined with single spaces, so an
		// entry key with irregular spacing was never reachable and must
		// stay unreachable: it is left out of the automaton.
		if singleSpaced(term) {
			t.terms = append(t.terms, term)
		}
	}
	t.m = match.Compile(t.terms)
	lx.trie.Store(t)
	return t
}

// singleSpaced reports whether s is words joined by single spaces, that
// is strings.Join(strings.Fields(s), " ") == s with s non-empty.
func singleSpaced(s string) bool {
	if s == "" || s[0] == ' ' || s[len(s)-1] == ' ' {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' && s[i-1] == ' ', '\t' <= c && c <= '\r':
			return false
		case c >= utf8.RuneSelf: // Unicode spaces: take the definition
			return strings.Join(strings.Fields(s), " ") == s
		}
	}
	return true
}

// lookupPhraseCands is how many candidates LookupPhrase keeps on the
// stack: one per matched length. Past that, append moves them to the
// heap.
const lookupPhraseCands = 16

// phraseCand is one entry term the walk matched at the start position.
type phraseCand struct{ pattern, length int32 }

// LookupPhrase scans tagged tokens [i, len) for the longest lexicon entry
// starting at i. It returns the polarity, the number of tokens consumed,
// and whether a match was found.
//
// The scan walks the shared phrase automaton, so it allocates nothing
// while no entry is longer than lookupPhraseCands words: candidate terms
// are resolved to interned entry keys instead of being built with
// ToLower+Join per length per position.
func (lx *Lexicon) LookupPhrase(tokens []pos.TaggedToken, i int) (Polarity, int, bool) {
	t := lx.phraseTrie()
	var stack [lookupPhraseCands]phraseCand
	cands := stack[:0] // append moves longer lists to the heap
	t.m.WalkAt(len(tokens), i,
		func(j int) uint32 { return t.m.Sym(tokens[j].Text) },
		func(pattern, length int) bool {
			cands = append(cands, phraseCand{int32(pattern), int32(length)})
			return true
		})
	for k := len(cands) - 1; k >= 0; k-- { // longest first
		term := t.terms[cands[k].pattern]
		l := int(cands[k].length)
		if pol, ok := lx.LookupLower(term, tokens[i].Tag); ok {
			return pol, l, true
		}
		// Single-reading fallback: when the term exists in the lexicon
		// under exactly one reading, a POS mismatch is almost always the
		// tagger misjudging an unknown word ("grimy" guessed as a noun),
		// not a genuine sense distinction — accept the lone reading.
		if list := lx.entries[term]; len(list) == 1 && tokens[i].Tag != 0 {
			return list[0].Pol, l, true
		}
	}
	return Neutral, 0, false
}

// Parse reads entries in the paper's line format:
//
//	"excellent" JJ +
//	"battery drain" NN -
//
// Quotes around the term are optional for single words. Lines starting
// with # and blank lines are skipped.
func Parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("lexicon line %d: %w", lineNo, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lexicon read: %w", err)
	}
	return entries, nil
}

func parseLine(line string) (Entry, error) {
	var term, rest string
	if strings.HasPrefix(line, `"`) {
		end := strings.Index(line[1:], `"`)
		if end < 0 {
			return Entry{}, fmt.Errorf("unterminated quote in %q", line)
		}
		term = line[1 : 1+end]
		rest = strings.TrimSpace(line[2+end:])
	} else {
		fields := strings.SplitN(line, " ", 2)
		if len(fields) != 2 {
			return Entry{}, fmt.Errorf("malformed entry %q", line)
		}
		term, rest = fields[0], strings.TrimSpace(fields[1])
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return Entry{}, fmt.Errorf("want POS and polarity after term in %q", line)
	}
	var pol Polarity
	switch fields[1] {
	case "+":
		pol = Positive
	case "-":
		pol = Negative
	default:
		return Entry{}, fmt.Errorf("bad polarity %q (want + or -)", fields[1])
	}
	tag, _ := pos.ParseTag(fields[0]) // an unknown name matches no token
	return Entry{Term: strings.ToLower(term), POS: tag, Pol: pol}, nil
}

// Load parses entries from r, adds them to the lexicon and compiles the
// phrase automaton, so the first lookup does not pay for it.
func (lx *Lexicon) Load(r io.Reader) error {
	entries, err := Parse(r)
	if err != nil {
		return err
	}
	for _, e := range entries {
		lx.Add(e)
	}
	lx.phraseTrie()
	return nil
}
