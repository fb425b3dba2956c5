// Package match implements the shared token-sequence matcher that backs
// the term spotter and the sentiment lexicon's phrase lookup: an
// Aho-Corasick automaton over interned word symbols, compiled once at
// platform start and scanned per document with zero allocation.
//
// The previous hot path looked every token up in a Go map after a
// strings.ToLower call — one allocation per capitalized token and a hash
// per token per resource. The matcher replaces both: tokens resolve to
// dense symbol IDs through a case-folding open-addressing table that
// never allocates, and the automaton's transitions live in one packed
// hash table keyed by (state, symbol), so a document is scanned in a
// single pass regardless of how many patterns are registered.
//
// Two scan disciplines are exposed over the same compiled trie:
//
//   - Scan: classic Aho-Corasick with failure links, reporting every
//     occurrence of every pattern (the spotter's contract).
//   - LongestAt: a plain root walk reporting the longest pattern starting
//     at one position (the lexicon's longest-entry-first contract).
//
// Patterns are phrases of space-separated words, lower-cased by Compile;
// matching is case-insensitive (ASCII fast path, Unicode fallback).
package match

import "strings"

// noSym marks a token word that appears in no pattern. Symbol 0 is
// reserved for it so the scanner can branch on zero.
const noSym = 0

// Match is one reported occurrence.
type Match struct {
	// Pattern is the index in Compile's pattern list of the matched
	// pattern.
	Pattern int
	// Start and End are token indices of the occurrence (half-open).
	Start, End int
}

// Matcher is the compiled automaton. It is immutable and safe for
// concurrent use; build one at startup and share it across workers.
type Matcher struct {
	table    foldTable
	trans    transTable
	fail     []int32
	outHead  []int32 // per state: head index into outList, -1 if none
	outList  []outEntry
	patLen   []int32 // per pattern: length in words
	maxDepth int
}

// outEntry is one node of the per-state output list (a linked list so
// suffix outputs are shared rather than copied per state).
type outEntry struct {
	pattern int32
	length  int32
	next    int32
}

// Compile builds the automaton of patterns. Each pattern is a phrase of
// words separated by spaces (runs of spaces count as one); a match
// reports the pattern's index in patterns. A phrase without words
// matches nothing. Duplicate phrases each report their own index.
//
// The build allocates a fixed handful of arrays, each sized from the
// pattern or word count up front: words are interned straight into the
// symbol table, trie edges straight into the transition table, and the
// trie grows one depth at a time, so states are numbered in
// breadth-first order and each state's failure link can be set when the
// state is created (every state it can point to is shallower, hence
// already complete).
func Compile(patterns []string) *Matcher {
	words := 0 // an upper bound on distinct words, edges and states
	for _, p := range patterns {
		words += strings.Count(p, " ") + 1
	}
	m := &Matcher{patLen: make([]int32, len(patterns))}
	m.table.init(words)

	// Intern every pattern's words; syms holds them back to back.
	syms := make([]uint32, 0, words)
	for i, p := range patterns {
		start := len(syms)
		for rest := p; rest != ""; {
			var w string
			w, rest, _ = strings.Cut(rest, " ")
			if w != "" {
				syms = append(syms, m.table.intern(strings.ToLower(w)))
			}
		}
		m.patLen[i] = int32(len(syms) - start)
		if int(m.patLen[i]) > m.maxDepth {
			m.maxDepth = int(m.patLen[i])
		}
	}

	// Grow the trie one depth at a time. at[p] is the state pattern p has
	// reached; after the last depth it is the state p terminates in.
	states := len(syms) + 1
	m.trans.init(len(syms))
	m.fail = make([]int32, states)
	at := make([]int32, len(patterns))
	n := int32(1) // states created; 0 is the root
	for d := 0; d < m.maxDepth; d++ {
		off := 0
		for p, l := range m.patLen {
			if d < int(l) {
				sym := syms[off+d]
				next, ok := m.trans.get(at[p], sym)
				if !ok {
					next = n
					n++
					m.trans.put(at[p], sym, next)
					m.fail[next] = m.failOf(at[p], sym)
				}
				at[p] = next
			}
			off += int(l)
		}
	}
	m.fail = m.fail[:n]

	// Output lists: a state's own patterns in index order, then its
	// failure state's list. outHead first chains each state's own
	// patterns (through next), then, state by state in breadth-first
	// order, becomes the head of the state's full list; a failure state
	// has a smaller number, so its list is final by then.
	m.outHead = make([]int32, n)
	for i := range m.outHead {
		m.outHead[i] = -1
	}
	next := make([]int32, len(patterns))
	for p := len(patterns) - 1; p >= 0; p-- {
		if m.patLen[p] > 0 {
			next[p], m.outHead[at[p]] = m.outHead[at[p]], int32(p)
		}
	}
	m.outList = make([]outEntry, 0, len(patterns))
	for s := int32(0); s < n; s++ {
		tail := int32(-1)
		if s != 0 {
			tail = m.outHead[m.fail[s]]
		}
		head := tail
		if p := m.outHead[s]; p >= 0 {
			head = int32(len(m.outList))
			for ; p >= 0; p = next[p] {
				m.outList = append(m.outList, outEntry{pattern: p, length: m.patLen[p], next: int32(len(m.outList)) + 1})
			}
			m.outList[len(m.outList)-1].next = tail
		}
		m.outHead[s] = head
	}
	return m
}

// failOf returns the failure state of the state reached from parent on
// sym: the state of the longest proper suffix of its path that is in the
// trie. It reads only states shallower than the new one.
func (m *Matcher) failOf(parent int32, sym uint32) int32 {
	if parent == 0 {
		return 0
	}
	for f := m.fail[parent]; ; f = m.fail[f] {
		if next, ok := m.trans.get(f, sym); ok {
			return next
		}
		if f == 0 {
			return 0
		}
	}
}

// MaxLen returns the longest registered pattern length in words.
func (m *Matcher) MaxLen() int { return m.maxDepth }

// Sym resolves a token's surface text to its symbol, case-insensitively
// and without allocating. It returns 0 for words outside every pattern.
func (m *Matcher) Sym(word string) uint32 { return m.table.lookup(word) }

// Scan runs the automaton over syms[i] = Sym(token i text) resolved by
// the caller via fn, reporting every pattern occurrence to emit in token
// order (at equal end positions, longer patterns first). It allocates
// nothing itself; emit receives matches as they are found.
//
// fn is called once per token and must return Sym(token text); callers
// scan token slices of any element type by closing over them.
func (m *Matcher) Scan(n int, fn func(i int) uint32, emit func(Match)) {
	state := int32(0)
	for i := 0; i < n; i++ {
		sym := fn(i)
		if sym == noSym {
			// A word outside every pattern always resets to the root:
			// no pattern can span it.
			state = 0
			continue
		}
		for {
			if nxt, ok := m.trans.get(state, sym); ok {
				state = nxt
				break
			}
			if state == 0 {
				break
			}
			state = m.fail[state]
		}
		for e := m.outHead[state]; e >= 0; e = m.outList[e].next {
			o := &m.outList[e]
			emit(Match{
				Pattern: int(o.pattern),
				Start:   i + 1 - int(o.length),
				End:     i + 1,
			})
		}
	}
}

// WalkAt walks the trie from the root over positions i, i+1, ... and
// calls visit for every pattern that starts exactly at i, in increasing
// length order. The walk stops when visit returns false, when the trie
// runs out of transitions, or when a word outside every pattern is hit.
// Like Scan, symbols are supplied per position by fn. Callers wanting
// the lexicon's longest-entry-first discipline collect the visited
// (pattern, length) pairs and try them in reverse.
func (m *Matcher) WalkAt(n, i int, fn func(i int) uint32, visit func(pattern, length int) bool) {
	state := int32(0)
	for j := i; j < n && j-i < m.maxDepth; j++ {
		sym := fn(j)
		if sym == noSym {
			return
		}
		nxt, found := m.trans.get(state, sym)
		if !found {
			return
		}
		state = nxt
		// Only outputs terminating exactly here (depth j-i+1) count: a
		// failure-suffix output would start later than i.
		for e := m.outHead[state]; e >= 0; e = m.outList[e].next {
			o := &m.outList[e]
			if int(o.length) == j-i+1 {
				if !visit(int(o.pattern), int(o.length)) {
					return
				}
				break
			}
		}
	}
}

// LongestAt returns the longest pattern starting exactly at position i,
// or ok=false when none does.
func (m *Matcher) LongestAt(n, i int, fn func(i int) uint32) (pattern, length int, ok bool) {
	m.WalkAt(n, i, fn, func(p, l int) bool {
		pattern, length, ok = p, l, true
		return true
	})
	return pattern, length, ok
}

// transTable is an open-addressing hash table from (state, symbol) to
// next state, packed into two flat arrays. Load factor is kept at or
// below 1/2 and probing is linear; lookups touch one or two cache lines
// and never allocate.
type transTable struct {
	keys []uint64 // (state+1)<<32 | sym; 0 = empty slot
	vals []int32
	mask uint64
}

func (t *transTable) init(edges int) {
	size := 16
	for size < edges*2 {
		size <<= 1
	}
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
}

func transKey(state int32, sym uint32) uint64 {
	return (uint64(state)+1)<<32 | uint64(sym)
}

// mix is the 64-bit finalizer from splitmix64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (t *transTable) put(state int32, sym uint32, next int32) {
	k := transKey(state, sym)
	slot := mix(k) & t.mask
	for t.keys[slot] != 0 {
		slot = (slot + 1) & t.mask
	}
	t.keys[slot] = k
	t.vals[slot] = next
}

func (t *transTable) get(state int32, sym uint32) (int32, bool) {
	k := transKey(state, sym)
	slot := mix(k) & t.mask
	for {
		cur := t.keys[slot]
		if cur == k {
			return t.vals[slot], true
		}
		if cur == 0 {
			return 0, false
		}
		slot = (slot + 1) & t.mask
	}
}

// foldTable maps surface words to symbols, case-insensitively, without
// allocating. Vocabulary words are stored lower-cased; lookups hash the
// probe word with ASCII case folding and compare fold-equal, so "CLIE",
// "Clie" and "clie" all resolve to one symbol with zero garbage. Words
// containing non-ASCII bytes take a Unicode slow path that may allocate
// — they cannot appear in the embedded English resources.
type foldTable struct {
	slots []uint32 // symbol (1-based); 0 = empty
	words []string // vocabulary, indexed by symbol-1
	mask  uint64
}

// init sizes an empty table for up to n words.
func (t *foldTable) init(n int) {
	size := 16
	for size < n*2 {
		size <<= 1
	}
	t.slots = make([]uint32, size)
	t.words = make([]string, 0, n)
	t.mask = uint64(size - 1)
}

// intern returns the symbol of the lower-cased word lw, adding lw to the
// vocabulary when it is new. The table must have room (init's n).
func (t *foldTable) intern(lw string) uint32 {
	slot := foldHash(lw) & t.mask
	for {
		sym := t.slots[slot]
		if sym == 0 {
			t.words = append(t.words, lw)
			sym = uint32(len(t.words))
			t.slots[slot] = sym
			return sym
		}
		if t.words[sym-1] == lw {
			return sym
		}
		slot = (slot + 1) & t.mask
	}
}

func (t *foldTable) lookup(word string) uint32 {
	if !asciiString(word) {
		// Unicode slow path: fold through ToLower (allocates only when
		// the word actually contains upper-case runes).
		word = strings.ToLower(word)
	}
	slot := foldHash(word) & t.mask
	for {
		sym := t.slots[slot]
		if sym == 0 {
			return noSym
		}
		if foldEqualASCII(t.words[sym-1], word) {
			return sym
		}
		slot = (slot + 1) & t.mask
	}
}

func asciiString(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// foldHash is FNV-1a over ASCII-lower-cased bytes.
func foldHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// foldEqualASCII reports a == b under ASCII case folding. The left side
// (stored vocabulary) is already lower-case.
func foldEqualASCII(lower, b string) bool {
	if len(lower) != len(b) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if lower[i] != c {
			return false
		}
	}
	return true
}
