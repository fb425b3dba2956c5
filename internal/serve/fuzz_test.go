package serve

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// frameCheckpoint wraps arbitrary body bytes in a valid header and CRC
// trailer, so the fuzzer reaches the body decoder instead of dying at
// the checksum.
func frameCheckpoint(body []byte) []byte {
	b := append([]byte(checkpointMagic), byte(checkpointVersion>>8), byte(checkpointVersion))
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzDecodeCheckpoint: recovery feeds decodeCheckpoint whatever bytes a
// crash or bit rot left under a checkpoint name. Arbitrary input — raw,
// and framed so it passes the CRC — must never panic or allocate from a
// count the remaining bytes cannot back, a rejected input must yield no
// checkpoint, and whatever decodes must survive an encode/decode round
// trip unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := testCheckpoint(2).encode()
	body := valid[len(checkpointMagic)+2 : len(valid)-4]
	f.Add(valid)
	f.Add(body)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add((&Checkpoint{View: NewAggregates().View()}).encode())
	// An entry count far beyond what the remaining bytes could hold.
	f.Add([]byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frameCheckpoint(data)} {
			ck, err := decodeCheckpoint(in)
			if err != nil {
				if ck != nil {
					t.Fatalf("rejected input still returned a checkpoint: %v", err)
				}
				continue
			}
			again, err := decodeCheckpoint(ck.encode())
			if err != nil {
				t.Fatalf("re-encoding a decoded checkpoint does not decode: %v", err)
			}
			if !reflect.DeepEqual(ck, again) {
				t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", again, ck)
			}
		}
	})
}
