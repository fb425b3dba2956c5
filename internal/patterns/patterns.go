// Package patterns implements the sentiment pattern database: the second
// linguistic resource of the sentiment miner, defining how a sentence
// predicate assigns sentiment to a grammatical target.
//
// Each entry follows the paper's notation
//
//	<predicate> <sent_category> <target>
//
// where predicate is a verb lemma, sent_category is either a fixed
// polarity (+ or -) or a source role (SP, OP, CP or PP, optionally
// prefixed with ~ to flip the source's polarity), and target is the role
// the sentiment is directed to (SP, OP or PP, where PP may restrict the
// preposition: PP(by;with)).
//
// Examples from the paper:
//
//	impress  +  PP(by;with)   // "I am impressed by the picture quality."
//	be       CP SP            // "The colors are vibrant."
//	offer    OP SP            // "The company offers mediocre services."
//
// Verbs like be or offer carry no polarity of their own — the paper calls
// them trans verbs — and transfer the polarity of the source phrase to the
// target.
package patterns

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode"

	"webfountain/internal/chunk"
	"webfountain/internal/lexicon"
)

// RoleSpec names a grammatical role with an optional preposition
// restriction for PP roles.
type RoleSpec struct {
	Role chunk.Role
	// Preps restricts PP roles to these prepositions (lower-cased). Empty
	// means any preposition.
	Preps []string
}

// MatchesPrep reports whether a PP with the given preposition satisfies
// the spec.
func (rs RoleSpec) MatchesPrep(prep string) bool {
	if rs.Role != chunk.RolePP || len(rs.Preps) == 0 {
		return true
	}
	prep = strings.ToLower(prep)
	for _, p := range rs.Preps {
		if p == prep {
			return true
		}
	}
	return false
}

// String renders the spec in the paper's notation.
func (rs RoleSpec) String() string {
	if rs.Role == chunk.RolePP && len(rs.Preps) > 0 {
		return "PP(" + strings.Join(rs.Preps, ";") + ")"
	}
	return rs.Role.String()
}

// Pattern is one sentiment extraction pattern for a predicate.
type Pattern struct {
	// Predicate is the verb lemma the pattern applies to.
	Predicate string
	// Fixed is the predicate's own polarity. When Neutral, the predicate
	// is a trans verb and Source defines where polarity comes from.
	Fixed lexicon.Polarity
	// Source is the component whose sentiment transfers to the target
	// (only meaningful when Fixed == Neutral).
	Source RoleSpec
	// InvertSource flips the source polarity (the paper's ~ prefix).
	InvertSource bool
	// Target is the component the sentiment is directed to.
	Target RoleSpec

	// str caches the notation rendering. DB.Add fills it so the hot
	// analyzer path never re-renders per assignment.
	str string
}

// IsTrans reports whether the pattern transfers sentiment from a source
// phrase rather than carrying fixed polarity.
func (p Pattern) IsTrans() bool { return p.Fixed == lexicon.Neutral }

// String renders the pattern in the paper's notation.
func (p Pattern) String() string {
	if p.str != "" {
		return p.str
	}
	return p.render()
}

func (p Pattern) render() string {
	cat := p.Fixed.String()
	if p.IsTrans() {
		cat = p.Source.String()
		if p.InvertSource {
			cat = "~" + cat
		}
	}
	return p.Predicate + " " + cat + " " + p.Target.String()
}

// DB is a sentiment pattern database keyed by predicate lemma.
type DB struct {
	byPredicate map[string][]Pattern
}

// NewDB returns an empty pattern database.
func NewDB() *DB { return &DB{byPredicate: make(map[string][]Pattern)} }

// Default returns a database populated with the embedded patterns.
func Default() *DB {
	ps := defaultPatterns()
	db := &DB{byPredicate: make(map[string][]Pattern, len(ps))}
	db.addAll(ps)
	return db
}

var shared = sync.OnceValue(Default)

// Shared returns a process-wide database of the embedded patterns, built
// once. Callers must treat it as read-only; anyone needing extra patterns
// builds their own DB via Default + Add/Load.
func Shared() *DB { return shared() }

// Add inserts a pattern. Multiple patterns per predicate are allowed; the
// analyzer picks the best structural match.
func (db *DB) Add(p Pattern) { db.addAll([]Pattern{p}) }

// addAll adds ps in order, taking ownership of the slice: a predicate's
// first pattern is served from ps itself (capped, so a second pattern
// for it copies instead of overwriting its neighbour), so a whole parse
// costs no per-predicate allocation.
func (db *DB) addAll(ps []Pattern) {
	for i := range ps {
		p := &ps[i]
		p.Predicate = strings.ToLower(p.Predicate)
		p.str = p.render()
		if list, ok := db.byPredicate[p.Predicate]; ok {
			db.byPredicate[p.Predicate] = append(list, *p)
		} else {
			db.byPredicate[p.Predicate] = ps[i : i+1 : i+1]
		}
	}
}

// Lookup returns all patterns for a predicate lemma.
func (db *DB) Lookup(lemma string) []Pattern {
	return db.byPredicate[strings.ToLower(lemma)]
}

// LookupLower is Lookup for a lemma that is already lower-case, as
// pos.VerbLemma returns it: it skips the fold.
func (db *DB) LookupLower(lemma string) []Pattern {
	return db.byPredicate[lemma]
}

// Len returns the number of predicates with at least one pattern.
func (db *DB) Len() int { return len(db.byPredicate) }

// Predicates returns the number of patterns in total.
func (db *DB) Patterns() int {
	n := 0
	for _, ps := range db.byPredicate {
		n += len(ps)
	}
	return n
}

// Parse reads patterns in the paper's line format, one per line:
//
//	impress + PP(by;with)
//	be CP SP
//	offer OP SP
//	avoid ~OP SP
//
// Lines starting with # and blank lines are skipped.
func Parse(r io.Reader) ([]Pattern, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pattern read: %w", err)
	}
	return parse(string(src))
}

// parse is Parse over text held in memory. The patterns' strings are
// substrings of src, and the result is allocated once.
func parse(src string) ([]Pattern, error) {
	out := make([]Pattern, 0, strings.Count(src, "\n")+1)
	for lineNo, rest := 1, src; rest != ""; lineNo++ {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("pattern line %d: %w", lineNo, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func parseLine(line string) (Pattern, error) {
	var fields [3]string
	n := 0 // fields counted, the first three kept
	for rest := strings.TrimLeftFunc(line, unicode.IsSpace); rest != ""; n++ {
		end := strings.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		if n < len(fields) {
			fields[n] = rest[:end]
		}
		rest = strings.TrimLeftFunc(rest[end:], unicode.IsSpace)
	}
	if n != len(fields) {
		return Pattern{}, fmt.Errorf("want 3 fields, got %d in %q", n, line)
	}
	p := Pattern{Predicate: strings.ToLower(fields[0])}

	cat := fields[1]
	switch cat {
	case "+":
		p.Fixed = lexicon.Positive
	case "-":
		p.Fixed = lexicon.Negative
	default:
		if strings.HasPrefix(cat, "~") {
			p.InvertSource = true
			cat = cat[1:]
		}
		src, err := parseRoleSpec(cat)
		if err != nil {
			return Pattern{}, fmt.Errorf("bad source %q: %w", fields[1], err)
		}
		p.Source = src
	}

	tgt, err := parseRoleSpec(fields[2])
	if err != nil {
		return Pattern{}, fmt.Errorf("bad target %q: %w", fields[2], err)
	}
	if tgt.Role == chunk.RoleCP {
		return Pattern{}, fmt.Errorf("CP cannot be a target in %q", line)
	}
	p.Target = tgt
	return p, nil
}

func parseRoleSpec(s string) (RoleSpec, error) {
	var preps []string
	if i := strings.Index(s, "("); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return RoleSpec{}, fmt.Errorf("unterminated preposition list in %q", s)
		}
		for _, p := range strings.Split(s[i+1:len(s)-1], ";") {
			p = strings.TrimSpace(strings.ToLower(p))
			if p != "" {
				preps = append(preps, p)
			}
		}
		s = s[:i]
	}
	var role chunk.Role
	switch s {
	case "SP":
		role = chunk.RoleSP
	case "OP":
		role = chunk.RoleOP
	case "CP":
		role = chunk.RoleCP
	case "PP":
		role = chunk.RolePP
	default:
		return RoleSpec{}, fmt.Errorf("unknown role %q", s)
	}
	if role != chunk.RolePP && len(preps) > 0 {
		return RoleSpec{}, fmt.Errorf("preposition list on non-PP role %q", s)
	}
	return RoleSpec{Role: role, Preps: preps}, nil
}

// Load parses patterns from r and adds them to the database.
func (db *DB) Load(r io.Reader) error {
	ps, err := Parse(r)
	if err != nil {
		return err
	}
	for _, p := range ps {
		db.Add(p)
	}
	return nil
}
