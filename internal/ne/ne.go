// Package ne implements the named entity spotter used in the second
// operational mode (no predefined subjects): it detects capitalized noun
// phrases as candidate subjects.
//
// Following the paper, candidate names are collected as sequences of
// capitalized tokens plus special lower-case connector tokens ("and",
// "of"); each candidate is then examined for conjunctions, prepositions
// and possessives, which indicate that the candidate must be split into
// multiple entities. The paper's example: "Prof. Wilson of American
// University" splits into "Prof. Wilson" and "American University".
package ne

import (
	"strings"

	"webfountain/internal/tokenize"
)

// Entity is one detected named entity.
type Entity struct {
	// Text is the entity's surface form (tokens joined by spaces).
	Text string
	// Start and End are token indices within the scanned token slice
	// (half-open).
	Start, End int
	// Sentence is the sentence index for sentence scans, -1 otherwise.
	Sentence int
}

// connectors are lower-case tokens allowed inside a candidate name.
var connectors = map[string]bool{
	"and": true, "of": true, "the": true, "for": true, "&": true,
}

// splitters are connector tokens at which a candidate is divided when the
// split heuristics fire. Possessive clitics also split.
var splitters = map[string]bool{
	"and": true, "of": true, "for": true,
}

// titles are honorifics that bind to the following capitalized token and
// suppress a split between them.
var titles = map[string]bool{
	"mr.": true, "mrs.": true, "ms.": true, "dr.": true, "prof.": true,
	"gen.": true, "gov.": true, "sen.": true, "rep.": true, "capt.": true,
	"col.": true, "lt.": true, "maj.": true, "sgt.": true, "rev.": true,
	"president": true, "chairman": true, "professor": true,
}

// stopwords are capitalized sentence-initial function words that must not
// seed an entity by themselves.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "this": true, "that": true,
	"these": true, "those": true, "it": true, "its": true, "he": true,
	"she": true, "they": true, "we": true, "i": true, "you": true,
	"my": true, "your": true, "his": true, "her": true, "our": true,
	"their": true, "there": true, "here": true, "when": true,
	"where": true, "what": true, "who": true, "why": true, "how": true,
	"unlike": true, "like": true, "as": true, "in": true, "on": true,
	"at": true, "by": true, "for": true, "with": true, "from": true,
	"but": true, "and": true, "or": true, "if": true, "while": true,
	"after": true, "before": true, "during": true, "however": true,
	"although": true, "because": true, "since": true, "also": true,
	"meanwhile": true, "moreover": true, "unfortunately": true,
	"fortunately": true, "overall": true, "finally": true, "still": true,
	"yet": true, "so": true, "then": true, "once": true, "some": true,
	"most": true, "many": true, "all": true, "no": true, "not": true,
	"even": true, "despite": true, "according": true, "last": true,
	"earlier": true, "later": true, "today": true, "yesterday": true,
	"tomorrow": true, "recently": true, "critics": true, "analysts": true,
	"investors": true, "reviewers": true, "officials": true,
	"regulators": true, "doctors": true, "patients": true,
	"researchers": true, "scientists": true, "executives": true,
	"shares": true, "sales": true, "results": true, "revenue": true,
	"profits": true, "earnings": true, "production": true,
	"both": true, "either": true, "neither": true, "each": true,
	"every": true, "any": true, "such": true, "several": true,
	"few": true, "other": true, "another": true, "one": true,
	"two": true, "three": true, "four": true, "five": true,
}

// Word classes of the lists above, one bit each.
const (
	classStop uint8 = 1 << iota
	classConnector
	classSplitter
	classTitle
)

// termClass holds each vocabulary term's word classes: a token's classes
// are one probe of its text, done at most once (Token.TermID), and read
// as bits after.
var termClass = tokenize.Classes(
	tokenize.WordList{Words: stopwords, Class: classStop},
	tokenize.WordList{Words: connectors, Class: classConnector},
	tokenize.WordList{Words: splitters, Class: classSplitter},
	tokenize.WordList{Words: titles, Class: classTitle},
)

func classOf(t *tokenize.Token) uint8 { return tokenize.ClassOf(termClass, t) }

// Spotter detects named entities in token streams. The zero value is ready
// to use.
type Spotter struct{}

// New returns a ready-to-use named entity spotter.
func New() *Spotter { return &Spotter{} }

// SpotTokens scans tokens and returns named entities ordered by position.
func (sp *Spotter) SpotTokens(tokens []tokenize.Token) []Entity {
	return sp.AppendEntities(nil, tokens, -1)
}

// SpotSentences scans each sentence, marking entities with their sentence
// index. Sentence-initial capitalized words only seed an entity when they
// are not common function words or when followed by more capitalized
// tokens.
func (sp *Spotter) SpotSentences(sents []tokenize.Sentence) []Entity {
	var all []Entity
	for _, s := range sents {
		all = sp.AppendEntities(all, s.Tokens, s.Index)
	}
	return all
}

// AppendEntities scans tokens and appends the detected entities to dst,
// marking them with the given sentence index (-1 for whole-document
// scans). Only tokens whose class a rule asks for are probed — the
// capitalized ones and the words right after a candidate — and each
// stores its term in Token.Term, so later stages do not probe it again.
func (sp *Spotter) AppendEntities(dst []Entity, tokens []tokenize.Token, sentence int) []Entity {
	i := 0
	for i < len(tokens) {
		if !isCandidateStart(tokens, i) {
			i++
			continue
		}
		// Collect the maximal candidate run: capitalized tokens, numbers
		// attached to names (NR70 handled as capitalized), connectors and
		// possessive clitics.
		j := i + 1
		for j < len(tokens) {
			t := &tokens[j]
			if isCapWord(t) {
				j++
				continue
			}
			if isConnector(t) && j+1 < len(tokens) && isCapWord(&tokens[j+1]) {
				j += 2
				continue
			}
			if isPossessive(t) && j+1 < len(tokens) && isCapWord(&tokens[j+1]) {
				j += 2
				continue
			}
			break
		}
		dst = splitCandidate(dst, tokens, i, j, sentence)
		i = j
	}
	return dst
}

// isCandidateStart reports whether a candidate name may begin at i.
func isCandidateStart(tokens []tokenize.Token, i int) bool {
	t := &tokens[i]
	if !isCapWord(t) {
		return false
	}
	if !isStopword(t) {
		return true
	}
	// A capitalized stopword can still start an entity when directly
	// followed by another capitalized word ("The Beatles") — but only
	// mid-sentence starts are trustworthy; we accept the lookahead form.
	return i+1 < len(tokens) && isCapWord(&tokens[i+1]) && !isStopword(&tokens[i+1])
}

func isConnector(t *tokenize.Token) bool { return classOf(t)&classConnector != 0 }

func isStopword(t *tokenize.Token) bool { return classOf(t)&classStop != 0 }

func isSplitter(t *tokenize.Token) bool { return classOf(t)&classSplitter != 0 }

func isTitle(t *tokenize.Token) bool { return classOf(t)&classTitle != 0 }

func isPossessive(t *tokenize.Token) bool { return tokenize.EqualFold(t.Text, "'s") }

func isCapWord(t *tokenize.Token) bool {
	if t.Kind != tokenize.Word {
		return false
	}
	return t.IsCapitalized()
}

// splitCandidate applies the paper's split heuristics to a candidate run
// [i, j), appending the resulting entities to dst: split at
// conjunctions/prepositions unless a title binds the parts, and split at
// possessives.
func splitCandidate(dst []Entity, tokens []tokenize.Token, i, j, sentence int) []Entity {
	start := i
	flush := func(end int) {
		if end <= start {
			return
		}
		// Trim leading/trailing connectors and stopword-only entities.
		s, e := start, end
		for s < e && (isConnector(&tokens[s]) || isStopword(&tokens[s]) && s == start && e-s > 1 && !isTitle(&tokens[s])) {
			if isConnector(&tokens[s]) {
				s++
				continue
			}
			if isStopword(&tokens[s]) && !isTitle(&tokens[s]) {
				s++
				continue
			}
			break
		}
		for e > s && (isConnector(&tokens[e-1]) || isPossessive(&tokens[e-1])) {
			e--
		}
		if e <= s {
			return
		}
		if e-s == 1 && isStopword(&tokens[s]) {
			return
		}
		text := tokens[s].Text // single-token entity: no string build
		if e-s > 1 {
			n := 0
			for _, t := range tokens[s:e] {
				n += len(t.Text) + 1
			}
			var b strings.Builder
			b.Grow(n - 1)
			for k, t := range tokens[s:e] {
				if k > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(t.Text)
			}
			text = b.String()
		}
		dst = append(dst, Entity{
			Text:     text,
			Start:    s,
			End:      e,
			Sentence: sentence,
		})
	}
	for k := i; k < j; k++ {
		if isSplitter(&tokens[k]) {
			// "of" after a title phrase splits ("Prof. Wilson of American
			// University"); a leading "of" inside an org name like "Bank
			// of America" does not when the left side is a single
			// non-title capitalized word.
			if tokens[k].Term == termOf && k-start == 1 && !isTitle(&tokens[start]) {
				continue // keep "Bank of America" together
			}
			flush(k)
			start = k + 1
			continue
		}
		if isPossessive(&tokens[k]) {
			flush(k)
			start = k + 1
		}
	}
	flush(j)
	return dst
}

// termOf is the term of "of", which an isSplitter test has just probed.
var termOf = tokenize.Intern("of")
