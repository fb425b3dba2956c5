package tokenize

import (
	"testing"
	"unicode/utf8"
)

// refAppendTokens is the tokenizer as it was before URL lookahead was
// gated on the byte that can start a URL, e-mail lookahead on an '@'
// ahead, and the contraction split on an apostrophe in the word. It tries
// every lookahead at every word and is the oracle the fast path must
// match token for token.
func refAppendTokens(dst []Token, text string) []Token {
	tokens := dst
	n := len(text)
	i := 0
	for i < n {
		c := text[i]
		switch {
		case isSpaceByte(c):
			i++
		case isDigitByte(c):
			j := i + 1
			for j < n && (isDigitByte(text[j]) || (text[j] == '.' && j+1 < n && isDigitByte(text[j+1])) || text[j] == ',') {
				j++
			}
			tokens = append(tokens, Token{Text: text[i:j], Start: i, End: j, Kind: Number})
			i = j
		case refHasURLPrefix(text[i:]):
			j := i
			for j < n && !isSpaceByte(text[j]) {
				j++
			}
			for j > i && (text[j-1] == '.' || text[j-1] == ',' || text[j-1] == ')' || text[j-1] == ';') {
				j--
			}
			tokens = append(tokens, Token{Text: text[i:j], Start: i, End: j, Kind: Symbol})
			i = j
		case refIsEmailAhead(text, i):
			j := i
			for j < n && (isLetterByte(text[j]) || isDigitByte(text[j]) ||
				text[j] == '.' || text[j] == '@' || text[j] == '-' || text[j] == '_') {
				j++
			}
			for j > i && text[j-1] == '.' {
				j--
			}
			tokens = append(tokens, Token{Text: text[i:j], Start: i, End: j, Kind: Symbol})
			i = j
		case isLetterByte(c):
			j := i + 1
			for j < n && (isLetterByte(text[j]) || isDigitByte(text[j]) ||
				(text[j] == '-' && j+1 < n && isLetterByte(text[j+1])) ||
				(text[j] == '\'' && j+1 < n && isLetterByte(text[j+1])) ||
				(text[j] == '.' && j+1 < n && isLetterByte(text[j+1]) && looksLikeAbbrevSoFar(text[i:j+1]))) {
				j++
			}
			if j < n && text[j] == '.' && isAbbreviation(text[i:j+1]) {
				j++
			}
			tokens = refAppendWordTokens(tokens, text[i:j], i)
			i = j
		default:
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
			tokens = append(tokens, Token{Text: text[i : i+1], Start: i, End: j, Kind: kind})
			i = j
		}
	}
	return tokens
}

func refAppendWordTokens(dst []Token, word string, start int) []Token {
	for _, suf := range contractionSuffixes {
		if len(word) > len(suf) && equalFoldASCII(word[len(word)-len(suf):], suf) {
			cut := len(word) - len(suf)
			return append(dst,
				Token{Text: word[:cut], Start: start, End: start + cut, Kind: Word},
				Token{Text: word[cut:], Start: start + cut, End: start + len(word), Kind: Word})
		}
	}
	return append(dst, Token{Text: word, Start: start, End: start + len(word), Kind: Word})
}

func refHasURLPrefix(s string) bool {
	for _, p := range []string{"http://", "https://", "ftp://", "www."} {
		if len(s) > len(p) && equalFoldASCII(s[:len(p)], p) {
			return true
		}
	}
	return false
}

func refIsEmailAhead(text string, i int) bool {
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

// tokenizerSeeds are inputs that reach every gate of the fast path: an
// '@' before, inside and after words, each URL scheme in both cases,
// clitics, non-ASCII letters and the Kelvin sign, which lower-cases to
// the ASCII 'k'.
var tokenizerSeeds = []string{
	"The NR70 takes excellent pictures. I don't like it's menu; the camera's lens won't focus.",
	"Mail me at user@example.com or a.b-c_d@host.co.uk, not @home or bob@ or x@y.",
	"two@signs@here.com and me@host. and 9lives@cats.org",
	"Visit http://example.com/x?y=1, HTTPS://Secure.ORG. ftp://files.net; www.camera.com) WWW. w h f",
	"Hello wor@ld. @ @@ a@b.c www.x@y.com http://a@b.c",
	"They're we've you'll I'd I'M DON'T O'Brien rock'n'roll ' 's n't",
	"Café naïve résumé — “quoted” Ørsted 東京 Kelvin K@x.com",
	"e.g. U.S. i.e. etc. Dr. Wilson vs. Mr. Smith. A.B.C.D. jan. Sept.",
	"1,299.99 dollars, 2.5 pounds... Wow!!! Really??? (yes) [no] {maybe} $5 50%",
	"state-of-the-art washed-out -dash dash- x-1 a--b",
	"\xff\xfe invalid \xc3 bytes \xe2\x82",
	"",
}

// FuzzTokenizerMatchesReference: the gated tokenizer returns exactly the
// reference tokenizer's tokens — text, span and kind — for any input,
// and appending to a used buffer leaves its prefix alone.
func FuzzTokenizerMatchesReference(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s)
	}
	tk := New()
	f.Fuzz(func(t *testing.T, text string) {
		want := refAppendTokens(nil, text)
		got := tk.AppendTokens(nil, text)
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens, reference %d\n got %+v\nwant %+v", text, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: token %d = %+v, reference %+v", text, i, got[i], want[i])
			}
		}
		prefix := []Token{{Text: "x", Kind: Symbol}}
		if again := tk.AppendTokens(prefix, text); len(again) != len(want)+1 || again[0] != prefix[0] {
			t.Fatalf("%q: AppendTokens over a used buffer disturbed its prefix", text)
		}
	})
}

// TestTokenizerMatchesReferenceOnSeeds runs the differential check over
// the fuzz seeds and over every single byte, so a plain go test covers
// each byte class.
func TestTokenizerMatchesReferenceOnSeeds(t *testing.T) {
	tk := New()
	inputs := append([]string(nil), tokenizerSeeds...)
	for c := 0; c < 256; c++ {
		inputs = append(inputs, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"b@c.d")
	}
	inputs = append(inputs, string(utf8.RuneError))
	for _, text := range inputs {
		want := refAppendTokens(nil, text)
		got := tk.AppendTokens(nil, text)
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens, reference %d", text, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: token %d = %+v, reference %+v", text, i, got[i], want[i])
			}
		}
	}
}
