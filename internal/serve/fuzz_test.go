package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

// countingBackend records what the gateway hands to Ingest.
type countingBackend struct {
	*fakeBackend
	emptyBatches int
}

func (b *countingBackend) Ingest(ctx context.Context, docs []Doc) ([]string, int, error) {
	if len(docs) == 0 {
		b.emptyBatches++
	}
	return b.fakeBackend.Ingest(ctx, docs)
}

// FuzzGatewayIngestBody: POST /api/ingest decodes whatever bytes a
// client sends. Arbitrary input must never panic a handler, must be
// answered 200, 400 or 413 and nothing else, and must never reach the
// backend as an empty batch.
func FuzzGatewayIngestBody(f *testing.F) {
	f.Add([]byte(`{"docs":[{"id":"d1","title":"NR70","date":"2004-03-02","text":"The NR70 takes excellent pictures."}]}`))
	f.Add([]byte(`{"docs":[]}`))
	f.Add([]byte(`{"docs":null}`))
	f.Add([]byte(`{"docs":[{}]}`))
	f.Add([]byte(`{"docs":[{"text":1}]}`))
	f.Add([]byte(`{"docs":[{"text":"a"}]} trailing`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Add([]byte{})
	f.Add([]byte(`{"docs":[{"text":"` + strings.Repeat("x", 600) + `"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		b := &countingBackend{fakeBackend: newFakeBackend()}
		g := NewGateway(b, GatewayConfig{MaxIngestBytes: 512, TenantRate: 1e9, TenantBurst: 1 << 30})
		panics := gwPanics.Value()
		w := httptest.NewRecorder()
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q", w.Code, body)
		}
		if got := gwPanics.Value() - panics; got != 0 {
			t.Fatalf("handler panicked on body %q", body)
		}
		if b.emptyBatches != 0 {
			t.Fatalf("backend saw an empty batch for body %q", body)
		}
		if (w.Code == http.StatusOK) != (b.ingests == 1) {
			t.Fatalf("status %d with %d backend ingests for body %q", w.Code, b.ingests, body)
		}
	})
}
