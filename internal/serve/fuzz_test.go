package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
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

// recordingBackend records what the gateway hands to Ingest.
type recordingBackend struct {
	*fakeBackend
	emptyBatches int
	got          []Doc
}

func (b *recordingBackend) Ingest(ctx context.Context, docs []Doc) ([]string, int, error) {
	if len(docs) == 0 {
		b.emptyBatches++
	}
	b.got = append([]Doc(nil), docs...)
	return b.fakeBackend.Ingest(ctx, docs)
}

// ingestBodySeeds are the fuzzer's seed bodies, also decoded by
// TestDecodeIngestMatchesEncodingJSON.
var ingestBodySeeds = []string{
	`{"docs":[{"id":"d1","title":"NR70","date":"2004-03-02","text":"The NR70 takes excellent pictures."}]}`,
	`{"docs":[]}`,
	`{"docs":[{}]}`,
	`{"docs":[{"text":"a"}]} trailing`,
	`[]`,
	`{`,
	``,
	`{"docs":[{"text":"` + strings.Repeat("x", 600) + `"}]}`,
	// Keys match exactly or under Unicode case folding: ſ (U+017F) folds
	// to s, raw and escaped; é does not fold to e.
	`{"DOCS":[{"TEXT":"a","Title":"t","iD":"x","SOURCE":"s","Date":"d"}]}`,
	"{\"docſ\":[{\"text\":\"a\",\"ſource\":\"s\"}]}",
	`{"doc\u017f":[{"te\u017ft":"a","title":"t"}]}`,
	`{"do\u0063s":[{"\u0074ext":"a"}]}`,
	`{"dócs":[{"text":"a"}],"docs":[{"téxt":"b","text":"c"}]}`,
	"{\"docs\":[{\"text\":\"a\",\"KK\":1}]}",
	// Every escape, \u0000 included, and raw non-ASCII.
	`{"docs":[{"text":"q\" b\\ s\/ \b\f\n\r\t z\u0000 eé E€ hÉÉ","title":"café"}]}`,
	"{\"docs\":[{\"text\":\"café € \U0001F600\",\"title\":\"über\"}]}",
	`{"docs":[{"text":"\x"}]}`,
	`{"docs":[{"text":"\u12"}]}`,
	`{"docs":[{"text":"\u12G4"}]}`,
	"{\"docs\":[{\"text\":\"tab\tin string\"}]}",
	// Surrogate pairs and lone surrogates.
	`{"docs":[{"text":"\ud83d\ude00 \uD83D\uDE00 😀"}]}`,
	`{"docs":[{"text":"\ud83d\ud83d\ude00\ude00"}]}`,
	`{"docs":[{"text":"\ud83d"}]}`,
	`{"docs":[{"text":"\ude00\ud83d"}]}`,
	`{"docs":[{"text":"\ud83dA \ud83dx \ud83d😀 \ud83d\"x"}]}`,
	`{"docs":[{"text":"\ud83d\u12"}]}`,
	// Invalid UTF-8 in values and in keys.
	"{\"docs\":[{\"text\":\"a\xffb\xc3\",\"title\":\"\xed\xa0\x80 \xef\xbf\xbd \xc0\xaf\"}]}",
	"{\"docs\":[{\"te\xffxt\":\"x\",\"text\":\"y\"}],\"\xff\":1}",
	"{\"doc\xf3\":[{\"text\":\"a\"}]}",
	// null at each level, and non-string field values.
	`null`,
	`{"docs":null}`,
	`{"docs":[null]}`,
	`{"docs":[null,{"text":"a"}]}`,
	`{"docs":[{"text":null}]}`,
	`{"docs":[{"text":"a","text":null,"title":"t","title":"u"}]}`,
	`{"docs":[{"text":1}]}`,
	`{"docs":[{"text":true}]}`,
	`{"docs":[{"text":{}}]}`,
	`{"docs":[{"text":["a"]}]}`,
	`{"docs":{"text":"a"}}`,
	`{"docs":"x"}`,
	`{"docs":[1,{"text":"a"}]}`,
	`{"docs":[{"text":1},]}`,
	`"docs"`,
	`123`,
	`true`,
	// Nested unknown keys and numbers of every shape.
	`{"meta":{"a":[1,{"b":null},-0.5e+10,0,1E3,2.25,true,false],"c":"é"},"docs":[{"extra":{"x":[[],{}]},"text":"a","n":-12}]}`,
	`{"n":01,"docs":[{"text":"a"}]}`,
	`{"n":1.,"docs":[{"text":"a"}]}`,
	`{"n":-,"docs":[{"text":"a"}]}`,
	`{"n":1e,"docs":[{"text":"a"}]}`,
	`{"n":.5,"docs":[{"text":"a"}]}`,
	`{"n":tru,"docs":[{"text":"a"}]}`,
	`{"n":[1,],"docs":[{"text":"a"}]}`,
	`{"n":{"a":1,},"docs":[{"text":"a"}]}`,
	`{"n":{"a" 1},"docs":[{"text":"a"}]}`,
	`{"n":{1:2},"docs":[{"text":"a"}]}`,
	// Whitespace, trailing bytes and truncations.
	" \t\n\r{ \"docs\" : [ { \"text\" : \"a\" } , { \"text\" : \"b\" } ] } \n",
	`{"docs":[{"text":"a"}]}{"docs":[]}`,
	`{"docs":[{"text":"a"}]}]]]`,
	`{"docs":[{"text":"a"}]`,
	`{"docs":[{"text":"a"}`,
	`{"docs":[{"text":"a"`,
	`{"docs":[{"text":"a`,
	`{"docs":[{"text":`,
	`{"docs":[{"text"`,
	`{"docs":[{`,
	`{"docs":[`,
	`{"docs":`,
	`{"docs"`,
	`{"docs":[{"text":"a"}],}`,
	"{\"docs\":[{\"text\":\"a\"}]}\x00",
	"\x00{\"docs\":[{\"text\":\"a\"}]}",
	// A repeated "docs" key: refused (a declared divergence).
	`{"docs":[{"text":"a"}],"docs":[{"text":"b"}]}`,
	`{"docs":null,"DOCS":[{"text":"b"}]}`,
}

// hasRepeatedDocsKey reports whether a body's top-level object names
// "docs" (under case folding) more than once before its first syntax
// error. The one-pass decoder refuses such a body where encoding/json
// keeps the last; that is one of its two declared divergences.
func hasRepeatedDocsKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if key, _ := tok.(string); strings.EqualFold(key, "docs") {
			if n++; n == 2 {
				return true
			}
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return false
}

// fuzzMaxIngest is the body limit the fuzzer's gateway enforces.
const fuzzMaxIngest = 512

// FuzzGatewayIngestBody: POST /api/ingest decodes whatever bytes a
// client sends. Arbitrary input must never panic a handler and must be
// answered 200, 400 or 413 and nothing else. A body over the limit must
// be answered 413. Any other body must be answered as encoding/json's
// Decoder decodes it: 400 where Decode fails or yields no documents, else
// 200 with exactly Decode's documents handed to the backend. The only
// exception is the other declared divergence, a repeated "docs" key,
// which must be answered 400.
func FuzzGatewayIngestBody(f *testing.F) {
	for _, s := range ingestBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b := &recordingBackend{fakeBackend: newFakeBackend()}
		g := NewGateway(b, GatewayConfig{MaxIngestBytes: fuzzMaxIngest, TenantRate: 1e9, TenantBurst: 1 << 30})
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
		if len(body) > fuzzMaxIngest {
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d for a %d-byte body, want 413", w.Code, len(body))
			}
			return
		}
		if hasRepeatedDocsKey(body) {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d for a repeated docs key in %q, want 400", w.Code, body)
			}
			return
		}
		want, err := jsonDecode(body)
		wantCode := http.StatusOK
		if err != nil || len(want) == 0 {
			wantCode = http.StatusBadRequest
		}
		if w.Code != wantCode {
			t.Fatalf("status %d, encoding/json gives %d (err %v) for body %q", w.Code, wantCode, err, body)
		}
		if wantCode == http.StatusOK && !reflect.DeepEqual(b.got, want) {
			t.Fatalf("body %q: backend got\n%q\nencoding/json decodes\n%q", body, b.got, want)
		}
	})
}
