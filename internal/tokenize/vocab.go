package tokenize

import (
	"fmt"
	"strings"
)

// The vocabulary is every word some analysis stage tests a token against
// — the tagger's lexical table, the named entity spotter's stopwords,
// connectors, splitters and titles, the chunker's and the analyzer's word
// lists — each interned once, at package initialization, by the package
// that owns the list. A term ID names one entry; three IDs are reserved:
const (
	// TermUnprobed marks a token whose text has not been probed yet.
	TermUnprobed uint32 = iota
	// TermUnknown marks an ASCII word outside the vocabulary.
	TermUnknown
	// TermUnprobeable marks a word holding a non-ASCII byte. Its
	// lower-case form needs full Unicode folding, so it is left to the
	// stages, which resolve it with LookupFolded where they test list
	// membership and treat it as equal to no word where they compare IDs,
	// exactly as the string probes and ASCII comparisons did.
	TermUnprobeable
	firstTerm
)

// MaxTermLen is the longest word the vocabulary holds, in bytes. An ASCII
// word longer than it cannot be in the vocabulary and probes as
// TermUnknown without a lookup.
const MaxTermLen = 32

var (
	vocabWords = make([]string, firstTerm)
	// vocabSlots is Probe's open-addressed table: a power-of-two array of
	// slots, at most half full, each holding a word's first 16 bytes
	// packed into two integers, its length and its term. A probe compares
	// integers, so neither a hit nor a miss reads the word itself unless
	// it is longer than 16 bytes. With a string-keyed map in its place,
	// probing was 12 % of the bulk analysis profile; with the table, 7 %.
	// It starts at the size the ~1 600 interned words need, so
	// initialization neither rehashes nor leaves smaller tables behind;
	// Intern still doubles it past 2 048 words.
	vocabSlots = make([]vocabSlot, 4096)
	slotShift  = 64 - 12
)

type vocabSlot struct {
	lo, hi uint64 // bytes 0–7 and 8–15 of the word, little-endian, zero-padded
	n      uint32 // the word's length; 0 marks an empty slot
	term   uint32
}

// slotOf returns the first slot to try for a packed word: a
// multiplicative mix of both halves and the length, top bits first.
func slotOf(lo, hi uint64, n int) int {
	h := (lo ^ hi*0xC2B2AE3D27D4EB4F ^ uint64(n)) * 0x9E3779B97F4A7C15
	return int(h >> slotShift)
}

// packWord packs the first 16 bytes of w as Probe packs a folded word.
func packWord(w string) (lo, hi uint64) {
	for i := 0; i < len(w) && i < 16; i++ {
		if i < 8 {
			lo |= uint64(w[i]) << (8 * i)
		} else {
			hi |= uint64(w[i]) << (8 * (i - 8))
		}
	}
	return lo, hi
}

func insertSlot(w string, id uint32) {
	lo, hi := packWord(w)
	mask := len(vocabSlots) - 1
	k := slotOf(lo, hi, len(w))
	for vocabSlots[k].n != 0 {
		k = (k + 1) & mask
	}
	vocabSlots[k] = vocabSlot{lo: lo, hi: hi, n: uint32(len(w)), term: id}
}

// Intern adds word to the vocabulary and returns its term ID; a word
// interned twice keeps its first ID. The word must be lower-case ASCII,
// as every list key is, and at most MaxTermLen bytes. It must be called
// only while packages initialize: after that the vocabulary is read
// concurrently without locks.
func Intern(word string) uint32 {
	if word == "" || len(word) > MaxTermLen {
		panic(fmt.Sprintf("tokenize: vocabulary word %q is empty or longer than %d bytes", word, MaxTermLen))
	}
	for i := 0; i < len(word); i++ {
		if c := word[i]; c >= 0x80 || 'A' <= c && c <= 'Z' {
			panic(fmt.Sprintf("tokenize: vocabulary word %q is not lower-case ASCII", word))
		}
	}
	if id := Probe(word); id != TermUnknown {
		return id
	}
	id := uint32(len(vocabWords))
	vocabWords = append(vocabWords, word)
	if 2*len(vocabWords) > len(vocabSlots) {
		vocabSlots = make([]vocabSlot, 2*len(vocabSlots))
		slotShift--
		for id, w := range vocabWords[firstTerm:] {
			insertSlot(w, uint32(id)+firstTerm)
		}
	} else {
		insertSlot(word, id)
	}
	return id
}

// VocabSize returns one past the highest term ID interned so far. A
// per-term table sized by it at initialization covers every term
// interned before it; a term beyond it must be treated as absent.
func VocabSize() int { return len(vocabWords) }

// TermWord returns the lower-case word of a vocabulary term, or "" for a
// reserved ID.
func TermWord(id uint32) string {
	if id < firstTerm || int(id) >= len(vocabWords) {
		return ""
	}
	return vocabWords[id]
}

// IsVocabTerm reports whether id names a vocabulary entry rather than
// one of the reserved IDs.
func IsVocabTerm(id uint32) bool { return id >= firstTerm }

// Probe returns the term ID of s folded to lower case: a vocabulary ID,
// TermUnknown, or TermUnprobeable when s holds a non-ASCII byte. The fold
// packs the word's first 16 bytes into two integers, which pick the slot
// and are compared with it, so nothing is copied or allocated.
func Probe(s string) uint32 {
	n := len(s)
	if n > MaxTermLen {
		for i := 0; i < n; i++ {
			if s[i] >= 0x80 {
				return TermUnprobeable
			}
		}
		return TermUnknown
	}
	var lo, hi uint64
	for i := 0; i < n; i++ {
		c := uint64(s[i])
		if c >= 0x80 {
			return TermUnprobeable
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		switch {
		case i < 8:
			lo |= c << (8 * i)
		case i < 16:
			hi |= c << (8 * (i - 8))
		}
	}
	mask := len(vocabSlots) - 1
	for k := slotOf(lo, hi, n); ; k = (k + 1) & mask {
		sl := &vocabSlots[k]
		if sl.n == 0 {
			return TermUnknown
		}
		if sl.lo == lo && sl.hi == hi && int(sl.n) == n && (n <= 16 || EqualFold(s[16:], vocabWords[sl.term][16:])) {
			return sl.term
		}
	}
}

// LookupFolded returns the vocabulary ID of strings.ToLower(s), or
// TermUnknown: the list-membership answer for a TermUnprobeable token,
// equal to what a probe of a lower-case-keyed map with strings.ToLower
// gives. It allocates when s needs folding.
func LookupFolded(s string) uint32 {
	if id := Probe(strings.ToLower(s)); id != TermUnprobeable {
		return id
	}
	return TermUnknown
}

// ClassTerm returns the term whose list memberships a token with term id
// and text has: id itself, or the Unicode-folded lookup when id is
// TermUnprobeable (or not probed yet).
func ClassTerm(id uint32, text string) uint32 {
	switch id {
	case TermUnprobed:
		id = Probe(text)
		if id != TermUnprobeable {
			return id
		}
		fallthrough
	case TermUnprobeable:
		return LookupFolded(text)
	}
	return id
}

// WordList is one word list of a stage and the class bit its words get.
type WordList struct {
	Words map[string]bool
	Class uint8
}

// Classes interns the words of lists and returns a table, indexed by
// term, of the class bits of the lists that hold each term. A term
// interned after the table is built lies beyond it and has no class. It
// must be called only while packages initialize, like Intern.
func Classes(lists ...WordList) []uint8 {
	var t []uint8
	for _, l := range lists {
		for w, in := range l.Words {
			if !in {
				continue
			}
			id := Intern(w)
			for int(id) >= len(t) {
				t = append(t, 0)
			}
			t[id] |= l.Class
		}
	}
	return t
}

// ClassOf returns the token's class bits in a Classes table, probing
// the token on first use. A non-ASCII word is looked up Unicode-folded,
// as a string probe of the lists with strings.ToLower would be.
func ClassOf(table []uint8, t *Token) uint8 {
	if id := ClassTerm(t.TermID(), t.Text); int(id) < len(table) {
		return table[id]
	}
	return 0
}
