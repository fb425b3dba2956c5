// Package chunk implements a shallow syntactic parser in the style of the
// Talent parser used by the paper: a finite-state chunker that groups
// POS-tagged tokens into base noun phrases, verb groups, adjective phrases
// and prepositional phrases, plus a clause analyzer that assigns the
// grammatical roles the sentiment pattern database is defined over —
// subject phrase (SP), object phrase (OP), complement phrase (CP) and
// prepositional phrases (PP) — and identifies the predicate verb.
package chunk

import (
	"strings"

	"webfountain/internal/pos"
	"webfountain/internal/tokenize"
)

// PhraseType classifies a chunk.
type PhraseType int

// Phrase types emitted by the chunker.
const (
	NP   PhraseType = iota // base noun phrase
	VP                     // verb group (auxiliaries + main verb + adverbs)
	ADJP                   // adjective phrase
	PP                     // prepositional phrase (preposition + NP)
	ADVP                   // freestanding adverb phrase
	O                      // anything else (punctuation, conjunctions, ...)
)

// String returns the conventional chunk label.
func (p PhraseType) String() string {
	switch p {
	case NP:
		return "NP"
	case VP:
		return "VP"
	case ADJP:
		return "ADJP"
	case PP:
		return "PP"
	case ADVP:
		return "ADVP"
	}
	return "O"
}

// Phrase is a contiguous chunk of tagged tokens.
type Phrase struct {
	Type PhraseType
	// Tokens are the tagged tokens of the phrase.
	Tokens []pos.TaggedToken
	// Start and End are token indices into the chunked sentence
	// (half-open interval).
	Start, End int
	// Head is the index within Tokens of the head word: the last noun of
	// an NP, the main verb of a VP, the adjective of an ADJP, the
	// preposition of a PP.
	Head int
	// Prep is the lower-cased preposition for PP phrases, empty otherwise.
	Prep string
}

// HeadToken returns the head token of the phrase.
func (p Phrase) HeadToken() pos.TaggedToken {
	if p.Head >= 0 && p.Head < len(p.Tokens) {
		return p.Tokens[p.Head]
	}
	return pos.TaggedToken{}
}

// Text renders the phrase as space-joined token text.
func (p Phrase) Text() string {
	parts := make([]string, len(p.Tokens))
	for i, t := range p.Tokens {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

// ContainsTokenIndex reports whether sentence token index i falls inside
// the phrase.
func (p Phrase) ContainsTokenIndex(i int) bool { return i >= p.Start && i < p.End }

// Role is a grammatical role used by sentiment patterns.
type Role int

// Grammatical roles per the paper's pattern notation.
const (
	RoleNone Role = iota
	RoleSP        // subject phrase
	RoleOP        // object phrase
	RoleCP        // complement (adjective) phrase
	RolePP        // prepositional phrase
)

// String returns the paper's two-letter role code.
func (r Role) String() string {
	switch r {
	case RoleSP:
		return "SP"
	case RoleOP:
		return "OP"
	case RoleCP:
		return "CP"
	case RolePP:
		return "PP"
	}
	return "-"
}

// Clause is one predicate and its role-bearing phrases.
type Clause struct {
	// Phrases are all chunks of the clause in order.
	Phrases []Phrase
	// Subject is the SP (nil if none found).
	Subject *Phrase
	// Predicate is the VP chunk holding the main verb (nil if verbless).
	Predicate *Phrase
	// Object is the OP (nil if none).
	Object *Phrase
	// Complement is the CP after a copula (nil if none).
	Complement *Phrase
	// PPs are the prepositional phrases of the clause.
	PPs []Phrase
	// MainVerb is the lexical main verb of the predicate.
	MainVerb pos.TaggedToken
	// ChainVerbs are the head verbs of each VP in the predicate chain, in
	// order ("fails to meet" -> [fails, meet]). The last equals MainVerb.
	ChainVerbs []pos.TaggedToken
	// Negated reports a negation adverb inside the verb group
	// (not, never, n't, hardly, seldom, rarely, barely, no longer).
	Negated bool
	// Passive reports a be-auxiliary followed by a past participle.
	Passive bool
}

// negationAdverbs per the paper: "an adverb with negative meaning, such as
// not, no, never, hardly, seldom, or little".
var negationAdverbs = map[string]bool{
	"not": true, "n't": true, "never": true, "hardly": true,
	"seldom": true, "rarely": true, "barely": true, "no": true,
	"little": true, "neither": true, "nor": true,
}

// Negates reports whether the token is a negation adverb: a class bit
// of its term, probed on first use.
func Negates(t *pos.TaggedToken) bool { return classOf(t)&classNegation != 0 }

// Word classes of the chunker's lists, one bit each.
const (
	classNegation uint8 = 1 << iota
	classBe
	classLinking
)

var termClass = tokenize.Classes(
	tokenize.WordList{Words: negationAdverbs, Class: classNegation},
	tokenize.WordList{Words: beFormSet, Class: classBe},
	tokenize.WordList{Words: linkingVerbs, Class: classLinking},
)

func classOf(t *pos.TaggedToken) uint8 { return tokenize.ClassOf(termClass, &t.Token) }

// lowerWord returns the token's text lower-cased: the interned word of a
// vocabulary term, so the common preposition costs no fold.
func lowerWord(t *pos.TaggedToken) string {
	if w := tokenize.TermWord(t.TermID()); w != "" {
		return w
	}
	return strings.ToLower(t.Text)
}

// Chunker groups tagged tokens into phrases and clauses. The zero value is
// ready to use.
type Chunker struct{}

// New returns a ready-to-use Chunker.
func New() *Chunker { return &Chunker{} }

// Chunk partitions a tagged sentence into phrases.
func (c *Chunker) Chunk(ts []pos.TaggedToken) []Phrase {
	return c.AppendPhrases(nil, ts)
}

// AppendPhrases appends the phrases of a tagged sentence to dst and
// returns the extended slice.
func (c *Chunker) AppendPhrases(dst []Phrase, ts []pos.TaggedToken) []Phrase {
	phrases := dst
	i, n := 0, len(ts)
	for i < n {
		tag := ts[i].Tag
		switch {
		case tag == pos.IN || tag == pos.TO:
			// PP = IN NP? An "to" followed by a verb is an infinitive and
			// belongs to the verb group instead.
			if tag == pos.TO && i+1 < n && (ts[i+1].Tag.IsVerb() || ts[i+1].Tag == pos.RB) {
				j, head := c.scanVP(ts, i)
				phrases = append(phrases, Phrase{Type: VP, Tokens: ts[i:j], Start: i, End: j, Head: head - i})
				i = j
				continue
			}
			j := c.scanNPAfter(ts, i+1)
			if j > i+1 {
				np := ts[i+1 : j]
				phrases = append(phrases, Phrase{
					Type:   PP,
					Tokens: ts[i:j],
					Start:  i, End: j,
					Head: 0,
					Prep: lowerWord(&ts[i]),
				})
				_ = np
				i = j
			} else {
				phrases = append(phrases, Phrase{Type: O, Tokens: ts[i : i+1], Start: i, End: i + 1, Head: 0})
				i++
			}
		case isNPStart(ts, i):
			j := c.scanNPAfter(ts, i)
			if j <= i {
				// No noun head materialized ("the best" with no noun):
				// fall back to a single O chunk so progress is guaranteed.
				phrases = append(phrases, Phrase{Type: O, Tokens: ts[i : i+1], Start: i, End: i + 1, Head: 0})
				i++
				break
			}
			head := lastNounIndex(ts, i, j)
			phrases = append(phrases, Phrase{Type: NP, Tokens: ts[i:j], Start: i, End: j, Head: head - i})
			i = j
		case tag.IsVerb() || tag == pos.MD:
			j, head := c.scanVP(ts, i)
			phrases = append(phrases, Phrase{Type: VP, Tokens: ts[i:j], Start: i, End: j, Head: head - i})
			i = j
		case tag.IsAdjective():
			j := i + 1
			// Adjective coordination: "vibrant and warm".
			for j < n {
				if ts[j].Tag.IsAdjective() {
					j++
					continue
				}
				if ts[j].Tag == pos.CC && j+1 < n && ts[j+1].Tag.IsAdjective() {
					j += 2
					continue
				}
				break
			}
			phrases = append(phrases, Phrase{Type: ADJP, Tokens: ts[i:j], Start: i, End: j, Head: 0})
			i = j
		case tag.IsAdverb():
			// A pre-adjectival adverb joins the ADJP ("really sharp"); a
			// pre-verbal one joins the VP via scanVP; otherwise ADVP.
			if i+1 < n && ts[i+1].Tag.IsAdjective() {
				j := i + 1
				for j < n && (ts[j].Tag.IsAdjective() || (ts[j].Tag == pos.CC && j+1 < n && ts[j+1].Tag.IsAdjective())) {
					if ts[j].Tag == pos.CC {
						j += 2
					} else {
						j++
					}
				}
				head := i + 1
				phrases = append(phrases, Phrase{Type: ADJP, Tokens: ts[i:j], Start: i, End: j, Head: head - i})
				i = j
				break
			}
			if i+1 < n && (ts[i+1].Tag.IsVerb() || ts[i+1].Tag == pos.MD) {
				j, head := c.scanVP(ts, i)
				phrases = append(phrases, Phrase{Type: VP, Tokens: ts[i:j], Start: i, End: j, Head: head - i})
				i = j
				break
			}
			phrases = append(phrases, Phrase{Type: ADVP, Tokens: ts[i : i+1], Start: i, End: i + 1, Head: 0})
			i++
		default:
			phrases = append(phrases, Phrase{Type: O, Tokens: ts[i : i+1], Start: i, End: i + 1, Head: 0})
			i++
		}
	}
	return phrases
}

// isNPStart reports whether an NP may begin at position i.
func isNPStart(ts []pos.TaggedToken, i int) bool {
	tag := ts[i].Tag
	switch {
	case tag == pos.DT, tag == pos.PDT, tag == pos.PRPS, tag == pos.PRP:
		return true
	case tag.IsNoun(), tag == pos.CD:
		return true
	case tag.IsAdjective() || tag == pos.VBG || tag == pos.VBN:
		// Attributive position: adjective directly before a noun chain.
		for j := i + 1; j < len(ts); j++ {
			t := ts[j].Tag
			if t.IsNoun() {
				return true
			}
			if !(t.IsAdjective() || t == pos.CD || t == pos.VBG || t == pos.VBN) {
				return false
			}
		}
	}
	return false
}

// scanNPAfter consumes an NP starting at i and returns the end index.
// Grammar: (PDT)? (DT|PRP$)? (CD|JJ*|VBG|VBN)* (NN|NNS|NNP|NNPS)+ (POS NP)?
// or a bare pronoun.
func (c *Chunker) scanNPAfter(ts []pos.TaggedToken, i int) int {
	n := len(ts)
	if i >= n {
		return i
	}
	j := i
	if ts[j].Tag == pos.PRP {
		return j + 1
	}
	if ts[j].Tag == pos.PDT {
		j++
	}
	if j < n && (ts[j].Tag == pos.DT || ts[j].Tag == pos.PRPS) {
		j++
	}
	mods := j
	for j < n && (ts[j].Tag.IsAdjective() || ts[j].Tag == pos.CD || ts[j].Tag == pos.VBG || ts[j].Tag == pos.VBN) {
		j++
	}
	nouns := j
	for j < n && ts[j].Tag.IsNoun() {
		j++
	}
	if j == nouns {
		// No noun head. An NP of pure modifiers is not an NP; back off
		// unless a determiner was consumed ("the best" as nominal — rare;
		// treat as not-NP).
		if nouns > mods {
			return i
		}
		return i
	}
	// Possessive recursion: "the camera's lens".
	if j < n && ts[j].Tag == pos.POS {
		k := c.scanNPAfter(ts, j+1)
		if k > j+1 {
			return k
		}
	}
	return j
}

// lastNounIndex finds the index (in sentence coordinates) of the last noun
// within [i, j).
func lastNounIndex(ts []pos.TaggedToken, i, j int) int {
	for k := j - 1; k >= i; k-- {
		if ts[k].Tag.IsNoun() || ts[k].Tag == pos.PRP {
			return k
		}
	}
	return j - 1
}

// scanVP consumes a verb group starting at i: adverbs, modals and
// auxiliaries followed by the main verb, with interleaved negations and a
// possible trailing particle. Returns the end index and the sentence index
// of the main (last) verb.
func (c *Chunker) scanVP(ts []pos.TaggedToken, i int) (end, mainVerb int) {
	n := len(ts)
	j := i
	mainVerb = i
	for j < n {
		t := ts[j].Tag
		if t.IsVerb() {
			mainVerb = j
			j++
			continue
		}
		if t == pos.MD || t == pos.TO {
			mainVerb = j
			j++
			continue
		}
		if t.IsAdverb() {
			// Adverb inside the group only if more verb follows ("does not
			// work") — a trailing adverb ("works well") belongs after.
			k := j
			for k < n && ts[k].Tag.IsAdverb() {
				k++
			}
			if k < n && (ts[k].Tag.IsVerb() || ts[k].Tag == pos.MD || ts[k].Tag == pos.TO) {
				j = k
				continue
			}
			break
		}
		if t == pos.RP {
			j++
			continue
		}
		break
	}
	if j == i {
		j = i + 1
	}
	return j, mainVerb
}

// Scratch holds reusable buffers for clause analysis. A zero Scratch is
// ready to use; passing the same Scratch to successive ClausesInto calls
// reuses the phrase, clause, verb-chain and PP storage. The returned
// clauses — and every pointer inside them — are valid only until the next
// call with the same Scratch.
type Scratch struct {
	phrases []Phrase
	clauses []Clause
	chain   []pos.TaggedToken
	pps     []Phrase
}

// Clauses chunks a tagged sentence and splits the chunks into clauses,
// assigning roles within each. Clause boundaries are coordinating
// conjunctions or punctuation separating two verb-bearing spans.
func (c *Chunker) Clauses(ts []pos.TaggedToken) []Clause {
	return c.ClausesInto(new(Scratch), ts)
}

// ClausesInto is Clauses with caller-owned scratch storage: phrases,
// clauses, verb chains and PP lists live in sc and are overwritten by the
// next call. Clause role pointers point into sc's phrase buffer.
func (c *Chunker) ClausesInto(sc *Scratch, ts []pos.TaggedToken) []Clause {
	sc.phrases = c.AppendPhrases(sc.phrases[:0], ts)
	sc.clauses = sc.clauses[:0]
	sc.chain = sc.chain[:0]
	sc.pps = sc.pps[:0]

	phrases := sc.phrases
	hasVP := func(ps []Phrase) bool {
		for i := range ps {
			if ps[i].Type == VP {
				return true
			}
		}
		return false
	}
	// Cut the phrase list at O-chunks (CC, comma, semicolon) whenever both
	// sides contain a VP.
	start := 0
	for i := range phrases {
		p := &phrases[i]
		if p.Type != O {
			continue
		}
		txt := p.Tokens[0].Text
		if txt != "," && txt != ";" && p.Tokens[0].Tag != pos.CC {
			continue
		}
		if hasVP(phrases[start:i]) && hasVP(phrases[i+1:]) {
			sc.clauses = append(sc.clauses, analyzeClause(sc, phrases[start:i]))
			start = i + 1
		}
	}
	if start < len(phrases) || len(sc.clauses) == 0 {
		sc.clauses = append(sc.clauses, analyzeClause(sc, phrases[start:]))
	}
	return sc.clauses
}

// analyzeClause assigns SP/OP/CP/PP roles around the main predicate.
// Role pointers reference the phrase slice in place; verb chains and PP
// lists are carved from sc's shared backing arrays.
func analyzeClause(sc *Scratch, phrases []Phrase) Clause {
	cl := Clause{Phrases: phrases}

	// Predicate: the first VP whose main verb is not an attributive
	// leftover; with chained VPs ("wants to love"), the last VP in the
	// chain carries the lexical verb.
	vpIdx := -1
	for i, p := range phrases {
		if p.Type == VP {
			vpIdx = i
			break
		}
	}
	if vpIdx < 0 {
		return cl
	}
	// Extend over immediately following VPs (infinitival chains).
	lastVP := vpIdx
	for i := vpIdx + 1; i < len(phrases) && phrases[i].Type == VP; i++ {
		lastVP = i
	}
	cl.Predicate = &phrases[lastVP]
	cl.MainVerb = phrases[lastVP].HeadToken()
	chainStart := len(sc.chain)
	for i := vpIdx; i <= lastVP; i++ {
		for _, t := range phrases[i].Tokens {
			if t.Tag.IsVerb() {
				sc.chain = append(sc.chain, t)
			}
		}
	}
	// Cap the carve so a later clause's append reallocates rather than
	// overwriting this clause's chain.
	cl.ChainVerbs = sc.chain[chainStart:len(sc.chain):len(sc.chain)]
	if len(cl.ChainVerbs) == 0 {
		cl.ChainVerbs = nil
	}

	// Negation and passivity from every VP in the chain.
	sawBe := false
	for i := vpIdx; i <= lastVP; i++ {
		toks := phrases[i].Tokens
		for k := range toks {
			c := classOf(&toks[k])
			if toks[k].Tag.IsAdverb() && c&classNegation != 0 {
				cl.Negated = true
			}
			if c&classBe != 0 {
				sawBe = true
			}
		}
	}
	if sawBe && cl.MainVerb.Tag == pos.VBN {
		cl.Passive = true
	}

	// Subject: last NP before the predicate chain.
	for i := vpIdx - 1; i >= 0; i-- {
		if phrases[i].Type == NP {
			cl.Subject = &phrases[i]
			break
		}
	}

	// Post-verbal phrases: first NP is the object, first ADJP is the
	// complement; an NP directly after a copular main verb is also a
	// complement ("is a great product").
	copular := classOf(&cl.MainVerb)&(classBe|classLinking) != 0
	ppStart := len(sc.pps)
	for i := lastVP + 1; i < len(phrases); i++ {
		switch phrases[i].Type {
		case NP:
			if copular && cl.Complement == nil && cl.Object == nil {
				cl.Complement = &phrases[i]
			} else if cl.Object == nil {
				cl.Object = &phrases[i]
			}
		case ADJP:
			if cl.Complement == nil {
				cl.Complement = &phrases[i]
			}
		case PP:
			sc.pps = append(sc.pps, phrases[i])
		}
	}
	// Leading PPs ("Unlike the T series CLIEs, the NR70 ...") also belong
	// to the clause.
	for i := 0; i < vpIdx; i++ {
		if phrases[i].Type == PP {
			sc.pps = append(sc.pps, phrases[i])
		}
	}
	cl.PPs = sc.pps[ppStart:len(sc.pps):len(sc.pps)]
	if len(cl.PPs) == 0 {
		cl.PPs = nil
	}
	return cl
}

var beFormSet = map[string]bool{
	"be": true, "is": true, "are": true, "am": true, "was": true,
	"were": true, "been": true, "being": true, "'s": true, "'re": true,
	"'m": true,
}

// linkingVerbs lists copular verbs other than be whose post-verbal
// adjective describes the subject.
var linkingVerbs = map[string]bool{
	"seem": true, "seems": true, "seemed": true, "look": true,
	"looks": true, "looked": true, "sound": true, "sounds": true,
	"sounded": true, "feel": true, "feels": true, "felt": true,
	"appear": true, "appears": true, "appeared": true, "remain": true,
	"remains": true, "remained": true, "stay": true, "stays": true,
	"stayed": true, "become": true, "becomes": true, "became": true,
	"get": true, "gets": true, "got": true, "turn": true, "turns": true,
	"turned": true, "prove": true, "proves": true, "proved": true,
	"taste": true, "tastes": true, "smell": true, "smells": true,
}
