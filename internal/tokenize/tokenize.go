// Package tokenize implements the WebFountain tokenizer miner: it turns
// raw document text into a stream of tokens with byte offsets, and groups
// tokens into sentences.
//
// The tokenizer is the first entity-level miner in every WebFountain
// pipeline; all downstream miners (POS tagging, chunking, spotting,
// sentiment analysis) consume its output rather than raw text, so offsets
// recorded here are the coordinate system for every later annotation.
//
// The implementation is a deterministic rule-based English tokenizer. It
// handles contractions ("don't" -> "do", "n't"), possessives ("camera's"
// -> "camera", "'s"), common abbreviations (so "Dr. Wilson" does not end a
// sentence), numbers with decimal points, and hyphenated words.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"webfountain/internal/metrics"
)

// textsTokenized counts the texts tokenized: one per Tokenize or
// AppendTokens call, so a document that is analyzed and indexed but
// tokenized once moves it by one.
var textsTokenized = metrics.Default().Counter("tokenize.texts")

// Kind classifies a token's surface form.
type Kind uint8

// Token kinds.
const (
	Word   Kind = iota // alphabetic word, possibly hyphenated
	Number             // integer or decimal number
	Punct              // punctuation mark
	Symbol             // any other non-space symbol
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Word:
		return "Word"
	case Number:
		return "Number"
	case Punct:
		return "Punct"
	case Symbol:
		return "Symbol"
	}
	return "Unknown"
}

// Token is a single lexical unit with its position in the source text.
// Start and End are byte offsets such that text[Start:End] == Text, with
// one exception: a collapsed run of '.', '!' or '?' spans the whole run
// while its Text is the run's first byte.
//
// Term caches the token's vocabulary term (see Probe): TermUnprobed until
// the first analysis stage that needs the word's class fills it in, so
// each word is folded and probed at most once, and only when asked.
// Kind and Term share the word that Kind alone used to pad, so the token
// is no larger for carrying the cache.
type Token struct {
	Text  string
	Start int
	End   int
	Kind  Kind
	Term  uint32
}

// TermID returns the token's vocabulary term, probing the text and
// storing the result on first use.
func (t *Token) TermID() uint32 {
	if t.Term == TermUnprobed {
		t.Term = Probe(t.Text)
	}
	return t.Term
}

// IsWord reports whether the token is alphabetic.
func (t Token) IsWord() bool { return t.Kind == Word }

// Lower returns the lower-cased token text.
func (t Token) Lower() string { return strings.ToLower(t.Text) }

// IsCapitalized reports whether the token starts with an upper-case letter.
func (t Token) IsCapitalized() bool {
	if t.Text == "" {
		return false
	}
	if c := t.Text[0]; c < utf8.RuneSelf {
		return 'A' <= c && c <= 'Z' // unicode.IsUpper on ASCII
	}
	r, _ := utf8.DecodeRuneInString(t.Text)
	return unicode.IsUpper(r)
}

// Sentence is a contiguous run of tokens ending at a sentence boundary.
type Sentence struct {
	// Index is the zero-based sentence number within the document.
	Index int
	// Tokens are the tokens of the sentence in order.
	Tokens []Token
	// Start and End are byte offsets of the sentence span in the source.
	Start int
	End   int
}

// Text reconstructs a normalized (single-spaced) rendering of the sentence.
func (s Sentence) Text() string {
	var b strings.Builder
	for i, t := range s.Tokens {
		if i > 0 && !noSpaceBefore(t.Text) && !noSpaceAfter(s.Tokens[i-1].Text) {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

func noSpaceBefore(tok string) bool {
	switch tok {
	case ".", ",", ";", ":", "!", "?", ")", "]", "}", "'s", "n't", "'re", "'ve", "'ll", "'d", "'m", "'", "%":
		return true
	}
	return false
}

func noSpaceAfter(tok string) bool {
	switch tok {
	case "(", "[", "{", "$":
		return true
	}
	return false
}

// abbreviations that end with a period but do not terminate a sentence.
var abbreviations = map[string]bool{
	"mr.": true, "mrs.": true, "ms.": true, "dr.": true, "prof.": true,
	"sr.": true, "jr.": true, "st.": true, "co.": true, "corp.": true,
	"inc.": true, "ltd.": true, "vs.": true, "etc.": true, "e.g.": true,
	"i.e.": true, "u.s.": true, "u.k.": true, "no.": true, "fig.": true,
	"jan.": true, "feb.": true, "mar.": true, "apr.": true, "jun.": true,
	"jul.": true, "aug.": true, "sep.": true, "sept.": true, "oct.": true,
	"nov.": true, "dec.": true, "approx.": true, "dept.": true, "est.": true,
	"gen.": true, "gov.": true, "hon.": true, "rev.": true, "sgt.": true,
	"capt.": true, "col.": true, "lt.": true, "maj.": true,
}

// contractions maps a lower-cased suffix to the split point from the end.
// "don't" has suffix "n't" (3 runes); "it's" has suffix "'s" (2 runes).
var contractionSuffixes = []string{"n't", "'re", "'ve", "'ll", "'d", "'m", "'s"}

// Tokenizer converts text into tokens and sentences. The zero value is
// ready to use.
type Tokenizer struct{}

// New returns a ready-to-use Tokenizer.
func New() *Tokenizer { return &Tokenizer{} }

// Tokenize splits text into tokens with byte offsets.
func (tk *Tokenizer) Tokenize(text string) []Token {
	return tk.AppendTokens(nil, text)
}

// AppendTokens appends the tokens of text to dst and returns the extended
// slice. Callers that retain dst across documents (resetting with dst[:0])
// amortize token storage to zero steady-state allocations.
//
// Each byte's class comes from one table load, and the costly lookaheads
// run only where they can succeed: a URL only at a byte that can start
// one ('h', 'f' or 'w' in either case), an e-mail address only while an
// '@' lies ahead, and the contraction split only in a word that holds an
// apostrophe.
func (tk *Tokenizer) AppendTokens(dst []Token, text string) []Token {
	textsTokenized.Inc()
	tokens := dst
	n := len(text)
	// nextAt is the offset of the first '@' at or after i, or n when the
	// rest of the text has none; it moves only when i passes it.
	nextAt := atOrEnd(text, 0)
	i := 0
	for i < n {
		c := text[i]
		class := byteClass[c]
		if i > nextAt {
			nextAt = atOrEnd(text, i)
		}
		switch {
		case class&classSpace != 0:
			i++
		case class&classDigit != 0:
			j := i + 1
			for j < n && (isDigitByte(text[j]) || (text[j] == '.' && j+1 < n && isDigitByte(text[j+1])) || text[j] == ',') {
				j++
			}
			tokens = emit(tokens, text[i:j], i, j, Number)
			i = j
		case class&classURLStart != 0 && urlAhead(text, i) && hasURLPrefix(text[i:]):
			j := i
			for j < n && !isSpaceByte(text[j]) {
				j++
			}
			// Trailing sentence punctuation belongs to the sentence, not
			// the URL.
			for j > i && (text[j-1] == '.' || text[j-1] == ',' || text[j-1] == ')' || text[j-1] == ';') {
				j--
			}
			tokens = emit(tokens, text[i:j], i, j, Symbol)
			i = j
		case nextAt < n && isEmailAhead(text, i):
			j := i
			for j < n && (isLetterByte(text[j]) || isDigitByte(text[j]) ||
				text[j] == '.' || text[j] == '@' || text[j] == '-' || text[j] == '_') {
				j++
			}
			for j > i && text[j-1] == '.' {
				j--
			}
			tokens = emit(tokens, text[i:j], i, j, Symbol)
			i = j
		case class&classLetter != 0:
			j := i + 1
			apostrophe := false
			for j < n {
				d := text[j]
				if byteClass[d]&(classLetter|classDigit) != 0 {
					j++
					continue
				}
				// '-', '\'' and an abbreviation's '.' stay inside a word
				// when a letter follows. The byte itself is tested first:
				// most words end at a space or a comma, and then the next
				// byte is never read.
				if d != '-' && d != '\'' && d != '.' ||
					j+1 >= n || byteClass[text[j+1]]&classLetter == 0 ||
					d == '.' && !looksLikeAbbrevSoFar(text[i:j+1]) {
					break
				}
				apostrophe = apostrophe || d == '\''
				j++
			}
			// Trailing period kept only for known abbreviations, so that
			// "etc." stays one token but "camera." splits. A word longer
			// than every abbreviation is never probed.
			if j < n && text[j] == '.' && j+1-i <= maxAbbreviation && isAbbreviation(text[i:j+1]) {
				j++
			}
			if apostrophe {
				tokens = appendWordTokens(tokens, text[i:j], i)
			} else {
				tokens = emit(tokens, text[i:j], i, j, Word)
			}
			i = j
		default:
			// Single-character punctuation or symbol token. Collapse runs
			// of the same sentence-final punctuation ("!!!" -> "!").
			j := i + 1
			if c == '.' || c == '!' || c == '?' {
				for j < n && text[j] == c {
					j++
				}
			}
			kind := Symbol
			if isPunctByte(c) {
				kind = Punct
			}
			// text[i:i+1] rather than string(c): the one-byte substring
			// shares the input's memory, so punctuation tokens cost no
			// allocation.
			tokens = emit(tokens, text[i:i+1], i, j, kind)
			i = j
		}
	}
	return tokens
}

// emit appends one token to tokens, writing its fields in place: an
// append of a Token literal builds the 40-byte value on the stack and
// copies it in halves, which made it the tokenizer's costliest line.
// Term is reset because a reused buffer holds the previous document's.
func emit(tokens []Token, s string, start, end int, kind Kind) []Token {
	n := len(tokens)
	if n == cap(tokens) {
		tokens = append(tokens, Token{})
	}
	tokens = tokens[:n+1]
	t := &tokens[n]
	t.Text, t.Start, t.End, t.Kind, t.Term = s, start, end, kind, TermUnprobed
	return tokens
}

// urlAhead is hasURLPrefix's gate: every prefix it knows has a ':' or a
// '.' three to five bytes in ("ftp:", "www.", "http:", "https:"), so a
// word without one there never runs the prefix comparisons.
func urlAhead(text string, i int) bool {
	for k := i + 3; k <= i+5 && k < len(text); k++ {
		if c := text[k]; c == ':' || c == '.' {
			return true
		}
	}
	return false
}

// atOrEnd returns the offset of the first '@' in text at or after i, or
// len(text) when there is none.
func atOrEnd(text string, i int) int {
	if k := strings.IndexByte(text[i:], '@'); k >= 0 {
		return i + k
	}
	return len(text)
}

// Byte classes of the tokenizer's main loop, one table load per byte.
const (
	classSpace    = 1 << iota // isSpaceByte
	classDigit                // isDigitByte
	classLetter               // isLetterByte: ASCII letters and every byte >= 0x80
	classURLStart             // a byte hasURLPrefix can match first
)

// byteClass is built from the byte predicates, so the table and the
// predicates the lookaheads use cannot disagree.
var byteClass = func() (t [256]uint8) {
	for i := range t {
		c := byte(i)
		if isSpaceByte(c) {
			t[i] |= classSpace
		}
		if isDigitByte(c) {
			t[i] |= classDigit
		}
		if isLetterByte(c) {
			t[i] |= classLetter
		}
		switch c | 0x20 {
		case 'h', 'f', 'w':
			t[i] |= classURLStart
		}
	}
	return t
}()

// looksLikeAbbrevSoFar reports whether a partial word containing an
// internal period could still be an abbreviation like "e.g" or "U.S":
// single letters separated by periods.
func looksLikeAbbrevSoFar(s string) bool {
	for len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	expectLetter := true
	for i := 0; i < len(s); i++ {
		if expectLetter {
			if s[i] == '.' {
				return false
			}
			expectLetter = false
		} else {
			if s[i] != '.' {
				return false
			}
			expectLetter = true
		}
	}
	return !expectLetter && len(s) > 0
}

// maxAbbreviation is the byte length of the longest abbreviation.
var maxAbbreviation = func() int {
	n := 0
	for a := range abbreviations {
		n = max(n, len(a))
	}
	return n
}()

// isAbbreviation reports whether s is a known abbreviation, folding ASCII
// case without allocating. The string(buf) map key conversion does not
// escape, so the lookup is allocation-free.
func isAbbreviation(s string) bool {
	if len(s) > 16 {
		return false
	}
	var buf [16]byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return abbreviations[strings.ToLower(s)]
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return abbreviations[string(buf[:len(s)])]
}

// appendWordTokens appends a word that holds an apostrophe to dst,
// splitting possessives and contractions off the end. The pieces share
// the byte span boundaries of the original word.
func appendWordTokens(dst []Token, word string, start int) []Token {
	for _, suf := range contractionSuffixes {
		if len(word) > len(suf) && equalFoldASCII(word[len(word)-len(suf):], suf) {
			cut := len(word) - len(suf)
			dst = emit(dst, word[:cut], start, start+cut, Word)
			return emit(dst, word[cut:], start+cut, start+len(word), Word)
		}
	}
	return emit(dst, word, start, start+len(word), Word)
}

// Sentences tokenizes text and groups the tokens into sentences.
func (tk *Tokenizer) Sentences(text string) []Sentence {
	tokens := tk.Tokenize(text)
	return tk.Split(tokens)
}

// Split groups an existing token stream into sentences. A sentence ends at
// '.', '!' or '?' unless the period belongs to a known abbreviation, or at
// the end of input.
func (tk *Tokenizer) Split(tokens []Token) []Sentence {
	return tk.AppendSentences(nil, tokens)
}

// AppendSentences appends the sentences of a token stream to dst and
// returns the extended slice. Sentences partition the stream in order, so
// each Sentence.Tokens is a capped subslice of tokens — no token copies.
// Sentence indexes restart at zero for this stream regardless of len(dst).
func (tk *Tokenizer) AppendSentences(dst []Sentence, tokens []Token) []Sentence {
	base := len(dst)
	start := 0
	flush := func(end int) {
		if end <= start {
			return
		}
		cur := tokens[start:end:end]
		dst = append(dst, Sentence{
			Index:  len(dst) - base,
			Tokens: cur,
			Start:  cur[0].Start,
			End:    cur[len(cur)-1].End,
		})
		start = end
	}
	for i := range tokens {
		t := &tokens[i]
		if t.Kind != Punct || len(t.Text) != 1 {
			continue
		}
		switch c := t.Text[0]; c {
		case '.', '!', '?':
			// A period mid-number or abbreviation never reaches here (those
			// are folded into the preceding token), so this is a boundary —
			// unless the next token continues in lower case right away,
			// which suggests an unusual abbreviation we don't know.
			if c == '.' && i+1 < len(tokens) && tokens[i+1].Kind == Word && !tokens[i+1].IsCapitalized() {
				continue
			}
			flush(i + 1)
		}
	}
	flush(len(tokens))
	return dst
}

// hasURLPrefix reports whether the text starts with a URL scheme or a
// leading "www." — web pages are full of them and they must stay single
// tokens.
func hasURLPrefix(s string) bool {
	for _, p := range []string{"http://", "https://", "ftp://", "www."} {
		if len(s) > len(p) && equalFoldASCII(s[:len(p)], p) {
			return true
		}
	}
	return false
}

// isEmailAhead reports whether an email address starts at position i: a
// run of address characters containing '@' before the next space.
func isEmailAhead(text string, i int) bool {
	if !isLetterByte(text[i]) && !isDigitByte(text[i]) {
		return false
	}
	sawAt := false
	j := i
	for j < len(text) && (isLetterByte(text[j]) || isDigitByte(text[j]) ||
		text[j] == '.' || text[j] == '@' || text[j] == '-' || text[j] == '_') {
		if text[j] == '@' {
			if sawAt {
				return false
			}
			sawAt = true
		}
		j++
	}
	// Require a dot after the @ ("user@host.tld").
	if !sawAt {
		return false
	}
	at := i
	for text[at] != '@' {
		at++
	}
	for k := at + 1; k < j; k++ {
		if text[k] == '.' && k+1 < j {
			return true
		}
	}
	return false
}

// Fold appends the lower-cased form of s to dst and returns the extended
// slice. ASCII letters fold bytewise; a non-ASCII byte switches the
// remainder to full Unicode lowering. With a reused buffer the fold is
// allocation-free, and so is the map probe, because Go elides the
// conversion in m[string(b)]:
//
//	key := tokenize.Fold(buf[:0], t.Text)
//	v, ok := m[string(key)]
func Fold(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return append(dst, strings.ToLower(s[i:])...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// EqualFold reports whether s equals lower under ASCII case folding. The
// second argument must already be lower-case; non-ASCII bytes compare
// verbatim.
func EqualFold(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

func equalFoldASCII(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

func isDigitByte(c byte) bool { return c >= '0' && c <= '9' }

func isLetterByte(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isPunctByte(c byte) bool {
	switch c {
	case '.', ',', ';', ':', '!', '?', '(', ')', '[', ']', '{', '}', '"', '\'', '-', '/':
		return true
	}
	return false
}
