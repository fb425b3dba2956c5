// Package sentiment implements the paper's core contribution: the
// sentiment analyzer that determines, for each subject reference, the
// sentiment expressed specifically about that subject.
//
// For every clause of a parsed sentence the analyzer identifies the
// predicate, finds the best matching entry in the sentiment pattern
// database, computes the polarity — either the predicate's own fixed
// polarity or, for trans verbs, the polarity of the source phrase looked
// up in the sentiment lexicon — applies sentence-level negation, and
// assigns the result to the pattern's target phrase.
package sentiment

import (
	"strings"

	"webfountain/internal/chunk"
	"webfountain/internal/lexicon"
	"webfountain/internal/patterns"
	"webfountain/internal/pos"
	"webfountain/internal/tokenize"
)

// Assignment is one (target, sentiment) pair extracted from a sentence.
type Assignment struct {
	// Target is the surface text of the phrase the sentiment is directed
	// to (determiners stripped).
	Target string
	// Polarity is the assigned sentiment.
	Polarity lexicon.Polarity
	// Pattern records which pattern fired, in the paper's notation, for
	// tracing; "lexicon-verb" and "contrast(unlike)" mark the fallback and
	// the contrast rule.
	Pattern string
	// Phrase is the target phrase itself; its token offsets locate the
	// target in the sentence.
	Phrase chunk.Phrase
	// Negated reports that sentence-level negation flipped the polarity.
	Negated bool
}

// Options control analyzer behaviour. The zero value enables the full
// algorithm; fields exist to ablate individual design choices.
type Options struct {
	// DisableNegation skips polarity reversal for negation adverbs, both
	// at phrase level and sentence level.
	DisableNegation bool
	// DisableTransVerbs skips source-phrase transfer: trans-verb patterns
	// are ignored and only fixed-polarity patterns and the lexicon-verb
	// fallback fire.
	DisableTransVerbs bool
	// DisableContrast skips the unlike-PP contrast rule.
	DisableContrast bool
}

// Analyzer extracts per-subject sentiment from parsed sentences.
type Analyzer struct {
	lex  *lexicon.Lexicon
	db   *patterns.DB
	opts Options
}

// New returns an analyzer over the given lexicon and pattern database.
// Nil arguments select the embedded defaults.
func New(lex *lexicon.Lexicon, db *patterns.DB) *Analyzer {
	return NewWithOptions(lex, db, Options{})
}

// NewWithOptions is New with explicit Options.
func NewWithOptions(lex *lexicon.Lexicon, db *patterns.DB, opts Options) *Analyzer {
	if lex == nil {
		lex = lexicon.Shared()
	}
	if db == nil {
		db = patterns.Shared()
	}
	return &Analyzer{lex: lex, db: db, opts: opts}
}

// Lexicon returns the analyzer's sentiment lexicon.
func (a *Analyzer) Lexicon() *lexicon.Lexicon { return a.lex }

// AnalyzeClauses extracts sentiment assignments from pre-computed clauses.
func (a *Analyzer) AnalyzeClauses(clauses []chunk.Clause) []Assignment {
	return a.AppendAssignments(nil, clauses)
}

// AppendAssignments appends the assignments of the clauses to dst and
// returns the extended slice, so a caller can reuse one buffer across
// sentences.
func (a *Analyzer) AppendAssignments(dst []Assignment, clauses []chunk.Clause) []Assignment {
	for i := range clauses {
		dst = a.analyzeClause(dst, clauses[i])
	}
	return dst
}

// Analyze tags nothing itself: it takes a tagged sentence, chunks it and
// extracts assignments.
func (a *Analyzer) Analyze(ts []pos.TaggedToken) []Assignment {
	ck := chunk.New()
	return a.AnalyzeClauses(ck.Clauses(ts))
}

// reversalVerbs flip the polarity of a following infinitival complement:
// "fails to impress" is negative even though impress is positive.
var reversalVerbs = map[string]bool{
	"fail": true, "refuse": true, "decline": true, "cease": true,
	"stop": true, "neglect": true, "forget": true,
}

// analyzeClause applies pattern matching and sentiment assignment to one
// clause, appending results to dst. With a catenative predicate chain
// ("fails to meet expectations"), the verbs are tried from last to first;
// reversal verbs earlier in the chain flip the resulting polarity.
func (a *Analyzer) analyzeClause(dst []Assignment, cl chunk.Clause) []Assignment {
	if cl.Predicate == nil {
		return a.verblessFallback(dst, cl)
	}
	chain := cl.ChainVerbs
	var one [1]pos.TaggedToken
	if len(chain) == 0 {
		one[0] = cl.MainVerb
		chain = one[:]
	}

	// Each chain verb is lemmatized once, from the per-term table.
	var lemmaBuf [4]string
	lemmas := lemmaBuf[:0]
	for k := range chain {
		lemmas = append(lemmas, pos.TermLemma(chain[k].TermID(), chain[k].Text))
	}
	for k := len(chain) - 1; k >= 0; k-- {
		pat, ok := a.bestPattern(lemmas[k], cl)
		if !ok {
			continue
		}
		pol := pat.Fixed
		if pat.IsTrans() {
			src, srcOK := rolePhrase(cl, pat.Source)
			if !srcOK {
				return dst
			}
			if pat.Source.Role == chunk.RoleCP {
				pol = a.complementPolarity(src)
			} else {
				pol = a.PhrasePolarity(src)
			}
			if pat.InvertSource {
				pol = pol.Flip()
			}
		}
		if pol == lexicon.Neutral {
			return dst
		}
		negated := false
		for j := 0; j < k; j++ {
			if reversalVerbs[lemmas[j]] {
				pol = pol.Flip()
			}
		}
		if cl.Negated && !a.opts.DisableNegation {
			pol = pol.Flip()
			negated = true
		}
		tgt, tgtOK := rolePhrase(cl, pat.Target)
		if !tgtOK {
			return dst
		}
		dst = append(dst, Assignment{
			Target:   TargetText(tgt),
			Polarity: pol,
			Pattern:  pat.String(),
			Phrase:   tgt,
			Negated:  negated,
		})
		dst = a.contrastAssignments(dst, cl, tgt, pol)
		dst = a.comparativeAssignments(dst, cl, tgt, pol)
		return dst
	}

	// Fallback: a chain verb may be a sentiment word even without a
	// pattern entry ("the drums dazzle" with dazzle in the lexicon).
	for k := len(chain) - 1; k >= 0; k-- {
		lemma := lemmas[k]
		if lemma == "be" || lemma == "do" || lemma == "have" {
			continue
		}
		if out := a.lexiconVerbFallback(dst, cl, lemma); len(out) > len(dst) {
			return out
		}
	}
	return dst
}

// bestPattern picks the pattern for lemma whose structural constraints the
// clause satisfies best. A pattern is viable only if its target role is
// present (with a matching preposition for PP targets) and, for trans
// patterns, its source role is present. Among viable patterns the one with
// the most satisfied constraints wins; fixed-polarity passive patterns
// (target PP) are preferred when the clause is passive.
func (a *Analyzer) bestPattern(lemma string, cl chunk.Clause) (patterns.Pattern, bool) {
	var best patterns.Pattern
	bestScore := -1
	candidates := a.db.LookupLower(lemma)
	for _, p := range candidates {
		if a.opts.DisableTransVerbs && p.IsTrans() {
			continue
		}
		if _, ok := rolePhrase(cl, p.Target); !ok {
			continue
		}
		score := 1
		if p.IsTrans() {
			src, ok := rolePhrase(cl, p.Source)
			if !ok {
				continue
			}
			score++
			if a.PhrasePolarity(src) != lexicon.Neutral {
				score++
			}
		}
		if p.Target.Role == chunk.RolePP {
			if cl.Passive {
				score += 2 // "I am impressed by X" prefers the PP pattern
			}
			score++ // a matching restricted PP is strong evidence
		} else if p.Target.Role == chunk.RoleSP && cl.Passive && hasPPTargetPattern(candidates) {
			// In a passive clause the surface subject is the experiencer,
			// not the sentiment target; penalize SP-target readings.
			score--
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best, bestScore >= 0
}

func hasPPTargetPattern(ps []patterns.Pattern) bool {
	for _, p := range ps {
		if p.Target.Role == chunk.RolePP {
			return true
		}
	}
	return false
}

// rolePhrase resolves a role spec against a clause. For PP roles the first
// preposition-compatible PP wins; its inner NP (tokens after the
// preposition) is returned as the phrase.
func rolePhrase(cl chunk.Clause, spec patterns.RoleSpec) (chunk.Phrase, bool) {
	switch spec.Role {
	case chunk.RoleSP:
		if cl.Subject != nil {
			return *cl.Subject, true
		}
	case chunk.RoleOP:
		if cl.Object != nil {
			return *cl.Object, true
		}
	case chunk.RoleCP:
		if cl.Complement != nil {
			return *cl.Complement, true
		}
	case chunk.RolePP:
		for _, pp := range cl.PPs {
			if spec.MatchesPrep(pp.Prep) {
				return innerNP(pp), true
			}
		}
	}
	return chunk.Phrase{}, false
}

// innerNP strips the preposition off a PP, leaving the noun phrase.
func innerNP(pp chunk.Phrase) chunk.Phrase {
	if len(pp.Tokens) <= 1 {
		return pp
	}
	np := pp
	np.Tokens = pp.Tokens[1:]
	np.Start = pp.Start + 1
	np.Type = chunk.NP
	np.Head = len(np.Tokens) - 1
	for i := len(np.Tokens) - 1; i >= 0; i-- {
		if np.Tokens[i].Tag.IsNoun() {
			np.Head = i
			break
		}
	}
	return np
}

// contrastAssignments implements the unlike-PP rule: "Unlike the T series
// CLIEs, the NR70 does not require an adapter" assigns the subject's
// sentiment, flipped, to the unlike-phrase.
func (a *Analyzer) contrastAssignments(dst []Assignment, cl chunk.Clause, target chunk.Phrase, pol lexicon.Polarity) []Assignment {
	if a.opts.DisableContrast || cl.Subject == nil {
		return dst
	}
	// The contrast only makes sense when the sentiment landed on the
	// subject.
	if target.Start != cl.Subject.Start {
		return dst
	}
	for _, pp := range cl.PPs {
		if pp.Prep != "unlike" {
			continue
		}
		np := innerNP(pp)
		dst = append(dst, Assignment{
			Target:   TargetText(np),
			Polarity: pol.Flip(),
			Pattern:  "contrast(unlike)",
			Phrase:   np,
		})
	}
	return dst
}

// lexiconVerbFallback handles predicates absent from the pattern database
// but present in the sentiment lexicon. The sentiment goes to the object
// when the subject is a first/third-person opinion holder, otherwise to
// the subject.
func (a *Analyzer) lexiconVerbFallback(dst []Assignment, cl chunk.Clause, lemma string) []Assignment {
	pol, ok := a.lex.LookupLower(lemma, pos.VB)
	if !ok || pol == lexicon.Neutral {
		return dst
	}
	negated := false
	if cl.Negated && !a.opts.DisableNegation {
		pol = pol.Flip()
		negated = true
	}
	var tgt chunk.Phrase
	havePassivePP := false
	if cl.Passive {
		// "I was enchanted by the harbor view": the by/with phrase names
		// what caused the feeling, exactly as the PP(by;with) patterns do.
		for _, pp := range cl.PPs {
			if pp.Prep == "by" || pp.Prep == "with" {
				tgt = innerNP(pp)
				havePassivePP = true
				break
			}
		}
	}
	switch {
	case havePassivePP:
	case cl.Object != nil && cl.Subject != nil && isOpinionHolder(*cl.Subject):
		tgt = *cl.Object
	case cl.Subject != nil:
		tgt = *cl.Subject
	case cl.Object != nil:
		tgt = *cl.Object
	default:
		return dst
	}
	dst = append(dst, Assignment{
		Target:   TargetText(tgt),
		Polarity: pol,
		Pattern:  "lexicon-verb",
		Phrase:   tgt,
		Negated:  negated,
	})
	return a.contrastAssignments(dst, cl, tgt, pol)
}

// verblessFallback extracts sentiment from verbless fragments ("A truly
// wonderful album.") by pairing an NP with sentiment-bearing modifiers.
func (a *Analyzer) verblessFallback(dst []Assignment, cl chunk.Clause) []Assignment {
	for _, p := range cl.Phrases {
		if p.Type != chunk.NP {
			continue
		}
		pol := a.PhrasePolarity(p)
		if pol == lexicon.Neutral {
			continue
		}
		dst = append(dst, Assignment{
			Target:   headText(p),
			Polarity: pol,
			Pattern:  "verbless-np",
			Phrase:   p,
		})
	}
	return dst
}

// opinionHolders are head words denoting a person expressing an opinion.
var opinionHolders = map[string]bool{
	"i": true, "we": true, "you": true, "he": true, "she": true,
	"they": true, "reviewer": true, "reviewers": true, "critic": true,
	"critics": true, "user": true, "users": true, "customer": true,
	"customers": true, "consumer": true, "consumers": true, "owner": true,
	"owners": true, "analyst": true, "analysts": true, "everyone": true,
	"everybody": true, "people": true, "fans": true, "fan": true,
	"listener": true, "listeners": true, "doctor": true, "doctors": true,
	"patient": true, "patients": true, "investor": true, "investors": true,
}

var opinionHolderTerms = tokenize.Classes(tokenize.WordList{Words: opinionHolders, Class: 1})

// isOpinionHolder reports whether the subject phrase denotes a person
// expressing an opinion (pronouns, reviewers, critics...).
func isOpinionHolder(p chunk.Phrase) bool {
	head := p.HeadToken()
	return tokenize.ClassOf(opinionHolderTerms, &head.Token) != 0
}

// comparativeAssignments handles "X is better than Y": when the matched
// complement carries a comparative adjective whose base form is polar, a
// than-PP names the disadvantaged comparand, which receives the opposite
// polarity — the comparative cousin of the unlike rule.
func (a *Analyzer) comparativeAssignments(dst []Assignment, cl chunk.Clause, target chunk.Phrase, pol lexicon.Polarity) []Assignment {
	if a.opts.DisableContrast || cl.Subject == nil || target.Start != cl.Subject.Start {
		return dst
	}
	for _, pp := range cl.PPs {
		if pp.Prep != "than" {
			continue
		}
		np := innerNP(pp)
		dst = append(dst, Assignment{
			Target:   TargetText(np),
			Polarity: pol.Flip(),
			Pattern:  "comparative(than)",
			Phrase:   np,
		})
	}
	return dst
}

// complementPolarity computes a complement phrase's polarity, resolving
// comparative forms ("better", "sharper") through their base adjectives.
func (a *Analyzer) complementPolarity(p chunk.Phrase) lexicon.Polarity {
	if pol := a.PhrasePolarity(p); pol != lexicon.Neutral {
		return pol
	}
	for _, t := range p.Tokens {
		// Comparatives of unknown adjectives get suffix-tagged as nouns
		// ("choppier" -> NN), so don't gate on the JJR/JJS tag: the lookup
		// only succeeds when the stripped base is a sentiment adjective,
		// which keeps agent nouns like "adapter" out.
		if pol, ok := a.lex.LookupComparative(t.Text); ok {
			return pol
		}
	}
	return lexicon.Neutral
}

// PhrasePolarity computes the sentiment of a phrase from the sentiment
// words it contains, reversing for negation adverbs inside the phrase
// ("no good", "hardly impressive"). Mixed evidence nets out; an exact tie
// is neutral.
func (a *Analyzer) PhrasePolarity(p chunk.Phrase) lexicon.Polarity {
	score := 0
	neg := false
	for i := 0; i < len(p.Tokens); {
		if chunk.Negates(&p.Tokens[i]) && !a.opts.DisableNegation {
			neg = true
			i++
			continue
		}
		pol, n, ok := a.lex.LookupPhrase(p.Tokens, i)
		if !ok {
			i++
			continue
		}
		v := int(pol)
		if neg {
			v = -v
			neg = false
		}
		score += v
		i += n
	}
	switch {
	case score > 0:
		return lexicon.Positive
	case score < 0:
		return lexicon.Negative
	}
	return lexicon.Neutral
}

// TargetText renders a target phrase with leading determiners and
// possessive pronouns stripped: "the flash capabilities" -> "flash
// capabilities".
func TargetText(p chunk.Phrase) string {
	toks := p.Tokens
	for len(toks) > 0 && (toks[0].Tag == pos.DT || toks[0].Tag == pos.PRPS || toks[0].Tag == pos.PDT) {
		toks = toks[1:]
	}
	if len(toks) == 1 {
		return toks[0].Text
	}
	n := 0
	for _, t := range toks {
		n += len(t.Text) + 1
	}
	var b strings.Builder
	b.Grow(n - 1)
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

func headText(p chunk.Phrase) string { return p.HeadToken().Text }

// ForSpan filters assignments down to those whose target phrase overlaps
// the token index range [start, end) — used to answer "what is the
// sentiment about the subject spotted at this span?".
func ForSpan(as []Assignment, start, end int) []Assignment {
	return AppendForSpan(nil, as, start, end)
}

// AppendForSpan is ForSpan appending into a caller-owned buffer.
func AppendForSpan(dst, as []Assignment, start, end int) []Assignment {
	for _, a := range as {
		if a.Phrase.Start < end && start < a.Phrase.End {
			dst = append(dst, a)
		}
	}
	return dst
}

// Net combines a set of assignments for one subject into a single
// polarity: the sign of the sum (a tie of + and - yields Neutral).
func Net(as []Assignment) lexicon.Polarity {
	score := 0
	for _, a := range as {
		score += int(a.Polarity)
	}
	switch {
	case score > 0:
		return lexicon.Positive
	case score < 0:
		return lexicon.Negative
	}
	return lexicon.Neutral
}
