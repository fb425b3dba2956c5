package webfountain

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// refSanitizeText is sanitizeText as a plain strings.Map over the whole
// text, the rule the byte-scan fast path must reproduce.
func refSanitizeText(text string) string {
	return strings.Map(func(r rune) rune {
		if r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
			r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF {
			return r
		}
		return utf8.RuneError
	}, text)
}

// TestSanitizeTextMatchesMap: the word-and-byte scan plus a mapped tail
// returns what mapping the whole text returns, for every single byte
// after a clean prefix, for each class of byte the scan must stop at (or
// pass) at every offset after a clean run of 0 to 16 bytes, so that it
// lands in the first word, the second word and the tail, for invalid and
// out-of-range UTF-8, and for random strings; and clean text comes back
// without an allocation.
func TestSanitizeTextMatchesMap(t *testing.T) {
	inputs := []string{
		"", "plain text.\tTabs\r\nand newlines", "café", "naïve \x00 nul",
		"\xff", "ok \xed\xa0\x80 surrogate", "￾￿", "\U0001F600 ok",
		"\x7f del", "tail \x1b", "\xc3", "ascii then \xe2\x82",
	}
	for c := 0; c < 256; c++ {
		inputs = append(inputs, "clean prefix "+string([]byte{byte(c)})+" rest")
	}
	classes := []string{
		"\x00", "\x1f", "\x7f", " ", "~", "\t", "\n", "\r", // controls, allowed and not, and ASCII edges
		"\x80", "\xbf", "\xc3", "\xff", // stray and truncated bytes
		"é", "€", "\U0001F600", // valid UTF-8 the scan must hand to the map
		"\xed\xa0\x80", "\xef\xbf\xbe", "\xef\xbf\xbd", // surrogate, U+FFFE, U+FFFD
	}
	for n := 0; n <= 16; n++ {
		for _, bad := range classes {
			for _, rest := range []string{"", "x", "tail run", "a longer clean tail run"} {
				inputs = append(inputs, strings.Repeat("a", n)+bad+rest)
			}
		}
	}
	for _, in := range inputs {
		if got, want := sanitizeText(in), refSanitizeText(in); got != want {
			t.Fatalf("sanitizeText(%q) = %q, want %q", in, got, want)
		}
	}
	if err := quick.Check(func(b []byte) bool {
		return sanitizeText(string(b)) == refSanitizeText(string(b))
	}, nil); err != nil {
		t.Fatal(err)
	}
	clean := strings.Repeat("The NR70 takes excellent pictures.\n", 50) + "Café."
	if avg := testing.AllocsPerRun(20, func() { sanitizeText(clean) }); avg != 0 {
		t.Fatalf("sanitizeText allocates %.1f times on clean text, want 0", avg)
	}
}
