package codec

import (
	"encoding/binary"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the reader: whatever the input —
// empty, truncated mid-varint, an honest blob with a corrupt tail, or a
// declared count far beyond the data — iteration must terminate without
// panicking, and any block handed out must decode within bounds.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})                                // empty
	f.Add(AppendBlock(nil, 0, nil))                // single doc, no positions
	f.Add(AppendBlock(nil, 1<<63, []int{1 << 62})) // max-gap varints
	full := AppendBlock(nil, 3, []int{1, 4, 4000})
	f.Add(full[:len(full)-1])                                        // truncated final delta
	f.Add([]byte{0x80})                                              // truncated varint
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<40)) // absurd count
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		blocks := 0
		for {
			b, ok := r.Next()
			if !ok {
				break
			}
			b.AppendPositions(nil)
			b.Contains(17)
			if blocks++; blocks > len(data) {
				t.Fatalf("more blocks than input bytes: reader not consuming")
			}
		}
	})
}

// FuzzRoundTrip encodes fuzz-chosen gaps/positions and requires the
// decoded blob to match exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), 0)
	f.Add(uint64(1), uint64(9), uint64(1<<50), 5)
	f.Fuzz(func(t *testing.T, gap, firstPos, posStep uint64, npos int) {
		if npos < 0 || npos > 1024 {
			return
		}
		pos := make([]int, 0, npos)
		p := firstPos % (1 << 40)
		step := posStep%(1<<20) + 1
		for i := 0; i < npos; i++ {
			pos = append(pos, int(p))
			p += step
		}
		blob := AppendBlock(nil, gap, pos)
		r := NewReader(blob)
		b, ok := r.Next()
		if !ok {
			t.Fatalf("decode failed for gap=%d npos=%d", gap, npos)
		}
		if b.Doc != gap || b.Count != npos {
			t.Fatalf("got doc=%d count=%d, want %d/%d", b.Doc, b.Count, gap, npos)
		}
		got := b.AppendPositions(nil)
		for i := range pos {
			if got[i] != pos[i] {
				t.Fatalf("position %d: got %d want %d", i, got[i], pos[i])
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatal("phantom second block")
		}
	})
}
