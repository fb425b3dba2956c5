package index

import (
	"strings"
	"testing"
	"unsafe"
)

// TestIndexKeepsNoStringOfTheText: every term and document ID a built
// index keeps is a string of its own, never a substring of the text it
// indexed or of the ID it was given, so an index does not keep the
// bodies its documents were cut from alive. The IDs, tokens, concept and
// field below are all cut from one text, as a request's documents are
// cut from its body.
func TestIndexKeepsNoStringOfTheText(t *testing.T) {
	text := string([]byte("doc-1 doc-2 price The camera takes excellent pictures and the battery life is short"))
	id1, id2, field := text[0:5], text[6:11], text[12:17]
	words := strings.Fields(text[18:])
	ix := NewSharded(4)
	ix.Add(id1, words)
	ix.Add(id2, words[3:])
	ix.Add(id1, words[:2]) // a re-add stores its ID key again
	ix.AddConcept(id2, words[1])
	ix.AddNumeric(id1, field, 1)
	if got := ix.Search(Phrase("battery", "life")); len(got) != 2 {
		t.Fatalf("the index answers %v for a phrase both documents hold", got)
	}

	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	check := func(what, s string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && p >= lo && p < hi {
			t.Errorf("%s %q points into the indexed text", what, s)
		}
	}
	for i := range ix.termShards {
		sh := &ix.termShards[i]
		for term := range sh.terms {
			check("term", term)
		}
		for _, id := range sh.ids {
			check("interned ID", id)
		}
		for id := range sh.idOf {
			check("interned ID key", id)
		}
	}
	for i := range ix.docShards {
		for id := range ix.docShards[i].docLen {
			check("document length key", id)
		}
	}
	for i := range ix.numShards {
		for f, m := range ix.numShards[i].numeric {
			check("numeric field", f)
			for id := range m {
				check("numeric ID", id)
			}
		}
	}
}
