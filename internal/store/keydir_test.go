package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestDurableMatchesInMemory is the differential check of the keydir: a
// durable store, which reads what it logged back from its log, and an
// in-memory store are fed the same seeded random sequence of PutBatch,
// Annotate, Update, Delete, Compact and close/reopen, and after every
// step both must answer Get, View, ForEach and Snapshot identically.
// Compactions and reopens move entities between the durable store's two
// kinds (resident after a snapshot load or a second compaction, logged
// otherwise), so every read path is compared over both.
func TestDurableMatchesInMemory(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := Options{Shards: 4, SyncEvery: 1 + int(seed%3)}
			dur, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { dur.Close() }()
			mem := New(4)
			id := func() string { return fmt.Sprintf("e%d", rng.Intn(12)) }
			words := []string{"alpha", "beta", "gamma <delta>", "epsilon & zeta", "eta \"theta\"", "iota"}
			text := func() string {
				var b bytes.Buffer
				for i := rng.Intn(6); i >= 0; i-- {
					b.WriteString(words[rng.Intn(len(words))])
					b.WriteByte(' ')
				}
				return b.String()
			}
			anns := func() []Annotation {
				out := make([]Annotation, rng.Intn(3))
				for i := range out {
					start := rng.Intn(20)
					out[i] = Annotation{Miner: []string{"sentiment", "spotter"}[rng.Intn(2)], Type: "polarity",
						Key: words[rng.Intn(len(words))], Value: []string{"+", "-", ""}[rng.Intn(3)],
						Feature: []string{"", "battery life"}[rng.Intn(2)], Sentence: rng.Intn(5) - 1, Start: start, End: start + rng.Intn(9)}
				}
				return out
			}
			entity := func() *Entity {
				e := &Entity{ID: id(), Source: []string{"", "review", "web"}[rng.Intn(3)], Title: text(), Text: text(), Annotations: anns()}
				if rng.Intn(2) == 0 {
					e.URL, e.Date, e.Links = "http://x.example/"+e.ID, "2004-03-02", []string{id(), id()}
				}
				return e
			}
			for step := 0; step < 400; step++ {
				var what string
				switch r := rng.Intn(100); {
				case r < 35:
					n := 1 + rng.Intn(4)
					ents, as := make([]*Entity, n), make([][]Annotation, n)
					for i := range ents {
						ents[i], as[i] = entity(), anns()
					}
					if rng.Intn(3) == 0 {
						as = nil
					}
					what = fmt.Sprintf("put batch of %d", n)
					for _, s := range []*Store{dur, mem} {
						if err := s.PutBatch(ents, as); err != nil {
							t.Fatalf("step %d: %s: %v", step, what, err)
						}
					}
				case r < 60:
					i, as := id(), anns()
					what = "annotate " + i
					okD, errD := dur.Annotate(i, as)
					okM, _ := mem.Annotate(i, as)
					if errD != nil || okD != okM {
						t.Fatalf("step %d: %s: durable %v %v, in memory %v", step, what, okD, errD, okM)
					}
				case r < 70:
					i, add := id(), text()
					what = "update " + i
					fn := func(e *Entity) {
						e.Text += add
						e.Links = append(e.Links, "u"+add)
					}
					if okD, okM := dur.Update(i, fn), mem.Update(i, fn); okD != okM {
						t.Fatalf("step %d: %s: durable %v, in memory %v", step, what, okD, okM)
					}
				case r < 80:
					i := id()
					what = "delete " + i
					if err := dur.Delete(i); err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
					mem.Delete(i) //nolint:errcheck // in memory: never fails
				case r < 90:
					what = "compact"
					if err := dur.Compact(); err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
				default:
					what = "close and reopen"
					if err := dur.Close(); err != nil {
						t.Fatalf("step %d: close: %v", step, err)
					}
					if dur, err = Open(dir, opts); err != nil {
						t.Fatalf("step %d: reopen: %v", step, err)
					}
				}
				requireSameAnswers(t, fmt.Sprintf("step %d (%s)", step, what), dur, mem)
			}
			if bad, reason := dur.Degraded(); bad {
				t.Fatalf("the durable store degraded: %s", reason)
			}
		})
	}
}

// requireSameAnswers asserts that two stores answer Len, IDs, Get, View,
// ForEach and Snapshot identically.
func requireSameAnswers(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("%s: Len = %d, want %d", label, g, w)
	}
	ids := want.IDs()
	if g := got.IDs(); !reflect.DeepEqual(g, ids) {
		t.Fatalf("%s: IDs = %v, want %v", label, g, ids)
	}
	view := func(s *Store, id string) (e *Entity) {
		if !s.View(id, func(v *Entity) { e = v.Clone() }) {
			t.Fatalf("%s: View(%s) reports it absent", label, id)
		}
		return e
	}
	for _, id := range ids {
		g, okG := got.Get(id)
		w, okW := want.Get(id)
		if !okG || !okW || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Get(%s) = %+v %v, want %+v %v", label, id, g, okG, w, okW)
		}
		if g, w := view(got, id), view(want, id); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: View(%s) = %+v, want %+v", label, id, g, w)
		}
	}
	each := func(s *Store) (out []*Entity) {
		if err := s.ForEach(func(e *Entity) error { out = append(out, e); return nil }); err != nil {
			t.Fatalf("%s: ForEach: %v", label, err)
		}
		return out
	}
	if g, w := each(got), each(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ForEach differs", label)
	}
	var g, w bytes.Buffer
	if err := got.Snapshot(&g); err != nil {
		t.Fatalf("%s: Snapshot: %v", label, err)
	}
	if err := want.Snapshot(&w); err != nil {
		t.Fatalf("%s: Snapshot: %v", label, err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: Snapshot differs:\n%s\nwant\n%s", label, g.Bytes(), w.Bytes())
	}
}

// TestReadRotReportsAbsent: a committed record that rots on disk after
// the store opened is found by the read that decodes it. That Get
// reports the entity absent, counts one store.read.errors and degrades
// the store, and the other entities read as before.
func TestReadRotReportsAbsent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, e := range []*Entity{{ID: "e1", Text: "alpha alpha"}, {ID: "e2", Text: "beta"}} {
		if err := st.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	wal := filepath.Join(dir, "wal-00000000.log")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(wal, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(walRecordOffsets(t, data)[0] + walHeaderSize + 4) // inside e1's put payload
	if _, err := f.WriteAt([]byte{data[at] ^ 0x20}, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := readErrors.Value()
	if e, ok := st.Get("e1"); ok {
		t.Fatalf("Get of a rotten record = %+v, want absent", e)
	}
	if got := readErrors.Value() - before; got != 1 {
		t.Errorf("store.read.errors went up by %d, want 1", got)
	}
	if bad, reason := st.Degraded(); !bad {
		t.Error("the store did not degrade on a rotten record")
	} else {
		t.Logf("degraded: %s", reason)
	}
	if e, ok := st.Get("e2"); !ok || e.Text != "beta" {
		t.Errorf("Get(e2) = %+v %v after e1 rotted", e, ok)
	}
	if err := st.Put(&Entity{ID: "e3"}); err == nil {
		t.Error("a degraded store accepted a put")
	}
}

// TestConcurrentReadsDuringWritesAndCompaction reads logged entities
// while writers put and annotate them and compactions move them into
// memory and retire their logs: every read finds a whole entity, and
// nothing degrades the store. Run under -race it covers the keydir's
// locks, the read handles and the residency step.
func TestConcurrentReadsDuringWritesAndCompaction(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const ids = 16
	for i := 0; i < ids; i++ {
		if err := st.Put(&Entity{ID: fmt.Sprint("e", i), Text: "seed"}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				id := fmt.Sprint("e", (w*7+k)%ids)
				var err error
				if k%3 == 0 {
					_, err = st.Annotate(id, []Annotation{{Miner: "m", Key: id, Start: k, End: k + 1}})
				} else {
					err = st.PutBatch([]*Entity{{ID: id, Text: fmt.Sprint("text ", k)}}, [][]Annotation{{{Miner: "m", Key: id}}})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 6; k++ {
			if err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				id := fmt.Sprint("e", (r+k)%ids)
				if e, ok := st.Get(id); !ok || e.ID != id || e.Text == "" {
					t.Errorf("Get(%s) = %+v %v", id, e, ok)
					return
				}
				if !st.View(id, func(e *Entity) {}) {
					t.Errorf("View(%s) found nothing", id)
					return
				}
				if k%50 == 0 {
					if err := st.ForEach(func(*Entity) error { return nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if bad, reason := st.Degraded(); bad {
		t.Fatalf("the store degraded: %s", reason)
	}
}
