package chunk

import (
	"strings"
	"testing"
	"testing/quick"

	"webfountain/internal/pos"
	"webfountain/internal/tokenize"
)

var (
	tk = tokenize.New()
	tg = pos.NewTagger()
	ck = New()
)

func chunksOf(s string) []Phrase  { return ck.Chunk(tg.Tag(tk.Tokenize(s))) }
func clausesOf(s string) []Clause { return ck.Clauses(tg.Tag(tk.Tokenize(s))) }

func phraseSummary(ps []Phrase) string {
	var parts []string
	for _, p := range ps {
		parts = append(parts, p.Type.String()+"["+p.Text()+"]")
	}
	return strings.Join(parts, " ")
}

func TestChunkSimpleSVO(t *testing.T) {
	ps := chunksOf("This camera takes excellent pictures.")
	sum := phraseSummary(ps)
	for _, want := range []string{"NP[This camera]", "VP[takes]", "NP[excellent pictures]"} {
		if !strings.Contains(sum, want) {
			t.Errorf("missing %s in %s", want, sum)
		}
	}
}

func TestChunkCopulaAdjective(t *testing.T) {
	ps := chunksOf("The colors are vibrant.")
	sum := phraseSummary(ps)
	for _, want := range []string{"NP[The colors]", "VP[are]", "ADJP[vibrant]"} {
		if !strings.Contains(sum, want) {
			t.Errorf("missing %s in %s", want, sum)
		}
	}
}

func TestChunkPP(t *testing.T) {
	ps := chunksOf("I am impressed by the picture quality.")
	sum := phraseSummary(ps)
	if !strings.Contains(sum, "PP[by the picture quality]") {
		t.Errorf("missing PP in %s", sum)
	}
	var pp *Phrase
	for i := range ps {
		if ps[i].Type == PP {
			pp = &ps[i]
		}
	}
	if pp == nil || pp.Prep != "by" {
		t.Fatalf("PP prep = %v, want by (%s)", pp, sum)
	}
}

func TestChunkNegatedVerbGroup(t *testing.T) {
	ps := chunksOf("The NR70 does not require an adapter.")
	sum := phraseSummary(ps)
	if !strings.Contains(sum, "VP[does not require]") {
		t.Errorf("negation not inside VP: %s", sum)
	}
}

func TestChunkPossessiveNP(t *testing.T) {
	ps := chunksOf("The camera's lens is sharp.")
	sum := phraseSummary(ps)
	if !strings.Contains(sum, "NP[The camera 's lens]") {
		t.Errorf("possessive NP not joined: %s", sum)
	}
}

func TestChunkAdverbAdjective(t *testing.T) {
	ps := chunksOf("The zoom is really sluggish.")
	sum := phraseSummary(ps)
	if !strings.Contains(sum, "ADJP[really sluggish]") {
		t.Errorf("missing ADJP with adverb: %s", sum)
	}
	for _, p := range ps {
		if p.Type == ADJP && p.HeadToken().Text != "sluggish" {
			t.Errorf("ADJP head = %q, want sluggish", p.HeadToken().Text)
		}
	}
}

func TestClauseRolesSVO(t *testing.T) {
	cls := clausesOf("This camera takes excellent pictures.")
	if len(cls) != 1 {
		t.Fatalf("got %d clauses, want 1", len(cls))
	}
	cl := cls[0]
	if cl.Subject == nil || cl.Subject.Text() != "This camera" {
		t.Errorf("subject = %v", cl.Subject)
	}
	if cl.MainVerb.Text != "takes" {
		t.Errorf("main verb = %q", cl.MainVerb.Text)
	}
	if cl.Object == nil || cl.Object.Text() != "excellent pictures" {
		t.Errorf("object = %v", cl.Object)
	}
	if cl.Negated || cl.Passive {
		t.Errorf("unexpected negated=%v passive=%v", cl.Negated, cl.Passive)
	}
}

func TestClauseRolesCopula(t *testing.T) {
	cls := clausesOf("The colors are vibrant.")
	cl := cls[0]
	if cl.Subject == nil || cl.Subject.HeadToken().Text != "colors" {
		t.Errorf("subject = %v", cl.Subject)
	}
	if cl.Complement == nil || cl.Complement.Text() != "vibrant" {
		t.Errorf("complement = %v", cl.Complement)
	}
	if cl.Object != nil {
		t.Errorf("object should be nil for copula, got %v", cl.Object)
	}
}

func TestClauseCopulaNominalComplement(t *testing.T) {
	cls := clausesOf("The NR70 is a great product.")
	cl := cls[0]
	if cl.Complement == nil || !strings.Contains(cl.Complement.Text(), "great product") {
		t.Errorf("complement = %v", cl.Complement)
	}
}

func TestClausePassive(t *testing.T) {
	cls := clausesOf("I am impressed by the flash capabilities.")
	cl := cls[0]
	if !cl.Passive {
		t.Error("expected passive")
	}
	if len(cl.PPs) != 1 || cl.PPs[0].Prep != "by" {
		t.Errorf("PPs = %v", cl.PPs)
	}
	if cl.MainVerb.Text != "impressed" {
		t.Errorf("main verb = %q", cl.MainVerb.Text)
	}
}

func TestClauseNegation(t *testing.T) {
	for _, s := range []string{
		"The flash does not work.",
		"The battery never lasts.",
		"The menu doesn't respond.",
		"The zoom hardly works.",
	} {
		cls := clausesOf(s)
		if len(cls) == 0 || !cls[0].Negated {
			t.Errorf("%q: expected negated clause (got %+v)", s, cls)
		}
	}
	cls := clausesOf("The flash works.")
	if cls[0].Negated {
		t.Error("unnegated sentence marked negated")
	}
}

func TestClauseLeadingPP(t *testing.T) {
	cls := clausesOf("Unlike the T70, the NR70 does not require an adapter.")
	cl := cls[0]
	found := false
	for _, pp := range cl.PPs {
		if pp.Prep == "unlike" {
			found = true
		}
	}
	if !found {
		t.Errorf("leading unlike-PP missing: %+v", cl.PPs)
	}
	if cl.Subject == nil || cl.Subject.HeadToken().Text != "NR70" {
		t.Errorf("subject = %v", cl.Subject)
	}
	if !cl.Negated {
		t.Error("expected negation")
	}
}

func TestClauseCoordinationSplits(t *testing.T) {
	cls := clausesOf("The zoom is responsive and the menu is confusing.")
	if len(cls) != 2 {
		t.Fatalf("got %d clauses, want 2: %+v", len(cls), cls)
	}
	if cls[0].Subject.HeadToken().Text != "zoom" || cls[1].Subject.HeadToken().Text != "menu" {
		t.Errorf("clause subjects = %q, %q", cls[0].Subject.Text(), cls[1].Subject.Text())
	}
	if cls[0].Complement == nil || cls[1].Complement == nil {
		t.Fatal("both clauses need complements")
	}
	if cls[0].Complement.Text() != "responsive" || cls[1].Complement.Text() != "confusing" {
		t.Errorf("complements = %q, %q", cls[0].Complement.Text(), cls[1].Complement.Text())
	}
}

func TestClauseLinkingVerb(t *testing.T) {
	cls := clausesOf("The chorus sounds bland.")
	cl := cls[0]
	if cl.Complement == nil || cl.Complement.Text() != "bland" {
		t.Errorf("complement = %v (phrases: %s)", cl.Complement, phraseSummary(cl.Phrases))
	}
}

func TestClauseInfinitivalChain(t *testing.T) {
	cls := clausesOf("The company failed to meet expectations.")
	cl := cls[0]
	if cl.MainVerb.Text != "meet" {
		t.Errorf("main verb = %q, want meet", cl.MainVerb.Text)
	}
	if cl.Object == nil || cl.Object.HeadToken().Text != "expectations" {
		t.Errorf("object = %v", cl.Object)
	}
}

func TestVerblessClauseHasNoPredicate(t *testing.T) {
	cls := clausesOf("A truly wonderful experience overall")
	if len(cls) != 1 {
		t.Fatalf("got %d clauses", len(cls))
	}
	// "experience" is the nominal; whether a VP is found depends on
	// tagging, but a nil predicate must be representable without panics.
	_ = cls[0].Predicate
}

func TestIsNegationAdverb(t *testing.T) {
	negates := func(w string) bool {
		return Negates(&pos.TaggedToken{Token: tokenize.Token{Text: w, Kind: tokenize.Word}})
	}
	for _, w := range []string{"not", "n't", "never", "hardly", "seldom", "NOT"} {
		if !negates(w) {
			t.Errorf("Negates(%q) = false", w)
		}
	}
	if negates("very") {
		t.Error("very is not a negation adverb")
	}
}

func TestPhraseTypeString(t *testing.T) {
	want := map[PhraseType]string{NP: "NP", VP: "VP", ADJP: "ADJP", PP: "PP", ADVP: "ADVP", O: "O"}
	for k, v := range want {
		if k.String() != v {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), v)
		}
	}
}

func TestRoleString(t *testing.T) {
	want := map[Role]string{RoleSP: "SP", RoleOP: "OP", RoleCP: "CP", RolePP: "PP", RoleNone: "-"}
	for k, v := range want {
		if k.String() != v {
			t.Errorf("Role %d String = %s, want %s", k, k.String(), v)
		}
	}
}

// Property: chunking partitions the token stream exactly.
func TestQuickChunksPartitionTokens(t *testing.T) {
	f := func(s string) bool {
		tagged := tg.Tag(tk.Tokenize(s))
		phrases := ck.Chunk(tagged)
		idx := 0
		for _, p := range phrases {
			if p.Start != idx || p.End <= p.Start || p.End > len(tagged) {
				return false
			}
			if len(p.Tokens) != p.End-p.Start {
				return false
			}
			idx = p.End
		}
		return idx == len(tagged)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every clause's role phrases point at phrases of the clause and
// heads are in range.
func TestQuickClauseRolesWellFormed(t *testing.T) {
	f := func(s string) bool {
		for _, cl := range ck.Clauses(tg.Tag(tk.Tokenize(s))) {
			for _, p := range []*Phrase{cl.Subject, cl.Predicate, cl.Object, cl.Complement} {
				if p == nil {
					continue
				}
				if p.Head < 0 || p.Head >= len(p.Tokens) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuestionHasNoSubjectBeforeVerb(t *testing.T) {
	// Inverted questions put the verb first; the clause analyzer must not
	// invent a subject, so downstream sentiment stays silent on questions.
	cls := clausesOf("Is the flash really powerful?")
	if len(cls) == 0 {
		t.Fatal("no clause")
	}
	if cls[0].Subject != nil {
		t.Errorf("question got subject %q", cls[0].Subject.Text())
	}
}

func TestImperativeClause(t *testing.T) {
	cls := clausesOf("Buy the camera today.")
	cl := cls[0]
	if cl.Subject != nil {
		t.Errorf("imperative got subject %q", cl.Subject.Text())
	}
	if cl.Object == nil || cl.Object.HeadToken().Text != "camera" {
		t.Errorf("imperative object = %v", cl.Object)
	}
}

func TestPPAttachmentAfterObject(t *testing.T) {
	cls := clausesOf("The camera stores files in the usual format.")
	cl := cls[0]
	if cl.Object == nil || cl.Object.HeadToken().Text != "files" {
		t.Errorf("object = %v", cl.Object)
	}
	if len(cl.PPs) != 1 || cl.PPs[0].Prep != "in" {
		t.Errorf("PPs = %+v", cl.PPs)
	}
}

func TestThanPPRecognized(t *testing.T) {
	cls := clausesOf("The NR70 is better than the T600.")
	cl := cls[0]
	found := false
	for _, pp := range cl.PPs {
		if pp.Prep == "than" {
			found = true
		}
	}
	if !found {
		t.Errorf("than-PP missing: %+v", cl.PPs)
	}
}

func TestChainVerbsRecorded(t *testing.T) {
	cls := clausesOf("The product fails to meet basic expectations.")
	cl := cls[0]
	if len(cl.ChainVerbs) < 2 {
		t.Fatalf("chain = %+v", cl.ChainVerbs)
	}
	if cl.ChainVerbs[0].Text != "fails" || cl.ChainVerbs[len(cl.ChainVerbs)-1].Text != "meet" {
		t.Errorf("chain = %v, %v", cl.ChainVerbs[0].Text, cl.ChainVerbs[len(cl.ChainVerbs)-1].Text)
	}
}
