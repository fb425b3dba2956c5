package ne

import (
	"strings"
	"testing"
	"unicode"

	"webfountain/internal/tokenize"
)

// refAppendEntities is the spotter as it was before its word-list tests
// became flag bits of a token's term: every test folds and probes the
// token's text against its own map, as many times as the rules ask. It
// is the oracle the one-probe spotter must match entity for entity.
func refAppendEntities(dst []Entity, tokens []tokenize.Token, sentence int) []Entity {
	i := 0
	for i < len(tokens) {
		if !refIsCandidateStart(tokens, i) {
			i++
			continue
		}
		j := i + 1
		for j < len(tokens) {
			t := tokens[j]
			if refIsCapWord(t) {
				j++
				continue
			}
			if refIsConnector(t) && j+1 < len(tokens) && refIsCapWord(tokens[j+1]) {
				j += 2
				continue
			}
			if refIsPossessive(t) && j+1 < len(tokens) && refIsCapWord(tokens[j+1]) {
				j += 2
				continue
			}
			break
		}
		dst = refSplitCandidate(dst, tokens, i, j, sentence)
		i = j
	}
	return dst
}

func refIsCandidateStart(tokens []tokenize.Token, i int) bool {
	t := tokens[i]
	if !refIsCapWord(t) {
		return false
	}
	if !refIsStopword(t) {
		return true
	}
	return i+1 < len(tokens) && refIsCapWord(tokens[i+1]) && !refIsStopword(tokens[i+1])
}

func refIsConnector(t tokenize.Token) bool {
	v, _ := refFoldProbe(connectors, t.Text)
	return v
}

func refIsStopword(t tokenize.Token) bool {
	v, _ := refFoldProbe(stopwords, t.Text)
	return v
}

func refIsSplitter(t tokenize.Token) bool {
	v, _ := refFoldProbe(splitters, t.Text)
	return v
}

func refIsTitle(t tokenize.Token) bool {
	v, _ := refFoldProbe(titles, t.Text)
	return v
}

// refFoldProbe is the string probe the spotter's tests used: an ASCII
// fold on the stack, strings.ToLower for a non-ASCII or long word.
func refFoldProbe(m map[string]bool, s string) (bool, bool) {
	if len(s) <= 32 {
		var buf [32]byte
		ascii := true
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 0x80 {
				ascii = false
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if ascii {
			v, ok := m[string(buf[:len(s)])]
			return v, ok
		}
	}
	v, ok := m[strings.ToLower(s)]
	return v, ok
}

func refIsPossessive(t tokenize.Token) bool { return tokenize.EqualFold(t.Text, "'s") }

func refIsCapWord(t tokenize.Token) bool {
	if t.Kind != tokenize.Word {
		return false
	}
	for _, r := range t.Text {
		return unicode.IsUpper(r)
	}
	return false
}

func refSplitCandidate(dst []Entity, tokens []tokenize.Token, i, j, sentence int) []Entity {
	start := i
	flush := func(end int) {
		if end <= start {
			return
		}
		s, e := start, end
		for s < e && (refIsConnector(tokens[s]) || refIsStopword(tokens[s]) && s == start && e-s > 1 && !refIsTitle(tokens[s])) {
			if refIsConnector(tokens[s]) {
				s++
				continue
			}
			if refIsStopword(tokens[s]) && !refIsTitle(tokens[s]) {
				s++
				continue
			}
			break
		}
		for e > s && (refIsConnector(tokens[e-1]) || refIsPossessive(tokens[e-1])) {
			e--
		}
		if e <= s {
			return
		}
		if e-s == 1 && refIsStopword(tokens[s]) {
			return
		}
		parts := make([]string, 0, e-s)
		for _, t := range tokens[s:e] {
			parts = append(parts, t.Text)
		}
		dst = append(dst, Entity{Text: strings.Join(parts, " "), Start: s, End: e, Sentence: sentence})
	}
	for k := i; k < j; k++ {
		if refIsSplitter(tokens[k]) {
			if tokenize.EqualFold(tokens[k].Text, "of") && k-start == 1 && !refIsTitle(tokens[start]) {
				continue
			}
			flush(k)
			start = k + 1
			continue
		}
		if refIsPossessive(tokens[k]) {
			flush(k)
			start = k + 1
		}
	}
	flush(j)
	return dst
}

// spotterPool is the fuzzer's alphabet of tokens: every word of the
// spotter's lists in lower, title and upper case, capitalized names,
// possessive clitics, non-ASCII words (one whose Unicode fold is a
// stopword: "LI\u212AE", with a Kelvin sign, lowers to "like"), words
// longer than 16 and than 32 bytes, numbers, punctuation and "&".
var spotterPool = func() []tokenize.Token {
	var pool []tokenize.Token
	word := func(w string) { pool = append(pool, tokenize.Token{Text: w, Kind: tokenize.Word}) }
	for _, m := range []map[string]bool{stopwords, connectors, splitters, titles} {
		for w := range m {
			if w == "&" {
				continue
			}
			word(w)
			word(strings.ToUpper(w[:1]) + w[1:])
			word(strings.ToUpper(w))
		}
	}
	for _, w := range []string{
		"Bank", "America", "Wilson", "American", "University", "NR70", "Sony", "CLIE",
		"'s", "'S", "Ünited", "Café", "ÉCOLE", "école", "Straße", "\u212Aodak", "LI\u212AE", "li\u212Ae",
		"Internationalization", "Supercalifragilisticexpialidocious", "of-the-art", "Prof.",
	} {
		word(w)
	}
	pool = append(pool,
		tokenize.Token{Text: "&", Kind: tokenize.Symbol},
		tokenize.Token{Text: "42", Kind: tokenize.Number},
		tokenize.Token{Text: ",", Kind: tokenize.Punct},
		tokenize.Token{Text: ".", Kind: tokenize.Punct})
	return pool
}()

// spotterTokens builds a token stream from data, two bytes per token.
func spotterTokens(data []byte) []tokenize.Token {
	toks := make([]tokenize.Token, 0, len(data)/2)
	for k := 0; k+1 < len(data); k += 2 {
		toks = append(toks, spotterPool[(int(data[k])<<8|int(data[k+1]))%len(spotterPool)])
	}
	return toks
}

// checkSpotterMatchesReference compares the spotter with the reference
// on a fresh stream, and again on the same stream once its terms are
// filled in, so a term stored by one pass must read the same in the next.
func checkSpotterMatchesReference(t *testing.T, toks []tokenize.Token) {
	t.Helper()
	want := refAppendEntities(nil, toks, 3)
	sp := New()
	for pass := 0; pass < 2; pass++ {
		got := sp.AppendEntities(nil, toks, 3)
		if len(got) != len(want) {
			t.Fatalf("pass %d, %d tokens: %d entities, reference %d\n got %+v\nwant %+v", pass, len(toks), len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: entity %d = %+v, reference %+v", pass, i, got[i], want[i])
			}
		}
	}
}

// FuzzSpotterMatchesReference: the flag-bit spotter agrees with the
// map-probing reference on any token stream over the pool.
func FuzzSpotterMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 1, 0, 2, 0, 3},
		[]byte("Prof. Wilson of American University"),
		[]byte("The Beatles and Bank of America's CLIE"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSpotterMatchesReference(t, spotterTokens(data))
	})
}

// TestSpotterMatchesReferenceOnPool runs the differential check over
// every pool token paired with every third one, each pair placed around
// and after a capitalized name, and over tokenized sentences, so a plain
// go test covers each list.
func TestSpotterMatchesReferenceOnPool(t *testing.T) {
	name := tokenize.Token{Text: "Wilson", Kind: tokenize.Word}
	for _, a := range spotterPool {
		for k := 0; k < len(spotterPool); k += 3 {
			b := spotterPool[k]
			checkSpotterMatchesReference(t, []tokenize.Token{a, name, b, name})
			checkSpotterMatchesReference(t, []tokenize.Token{name, a, b})
		}
	}
	tk := tokenize.New()
	for _, s := range []string{
		"Prof. Wilson of American University praised the NR70.",
		"The Beatles and Bank of America's Sony CLIE & the ÉCOLE of Straße.",
		"Unfortunately Critics of PetroNova and GulfStar's Meridian Oil disagreed.",
	} {
		checkSpotterMatchesReference(t, tk.Tokenize(s))
	}
}
