package webfountain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strconv"
	"testing"

	"webfountain/internal/corpus"
)

// factHash folds every field of a fact into h, each length-prefixed so
// that no two different fact streams hash alike.
func factHash(h hash.Hash, f SubjectSentiment) {
	var n [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	num := func(v int) {
		binary.LittleEndian.PutUint64(n[:], uint64(int64(v)))
		h.Write(n[:])
	}
	str(f.Subject)
	num(int(f.Polarity))
	str(f.DocID)
	num(f.Sentence)
	num(f.Start)
	num(f.End)
	str(f.Pattern)
	str(f.Feature)
}

// pinTexts returns the pinned documents: ingest_bulk-shaped texts and
// samples of the general-web, newswire and both review corpora, each with
// the ID it is mined under.
func pinTexts() (ids, texts []string) {
	for i, text := range bulkTexts(400) {
		ids = append(ids, "bulk-"+strconv.Itoa(i))
		texts = append(texts, text)
	}
	for _, docs := range [][]corpus.Document{
		corpus.PharmaWeb(benchSeed, 300),
		corpus.PetroleumNews(benchSeed, 300),
		corpus.DigitalCameraReviews(benchSeed, 200),
		corpus.MusicReviews(benchSeed, 200),
	} {
		for _, d := range docs {
			ids = append(ids, d.ID)
			texts = append(texts, d.Text())
		}
	}
	return ids, texts
}

// TestFactsPinned pins the miner's output: the count and sha256 of every
// fact field over a fixed document set, in both modes. The figures were
// recorded before the analysis pass moved to vocabulary term IDs, and any
// change to tokenization, spotting, tagging, chunking or pattern
// matching that moves a single fact moves them. Do not regenerate them to
// make a change pass; a change that is meant to move facts says so and
// records new figures on purpose.
func TestFactsPinned(t *testing.T) {
	ids, texts := pinTexts()
	for _, mode := range []struct {
		name  string
		cfg   MinerConfig
		count int
		sum   string
	}{
		{"entities", MinerConfig{}, 8842, "fac67ee50069f457121347e05e930c800225bfe4133c96547a4532852b259986"},
		{"subjects", MinerConfig{Subjects: []Subject{
			{Canonical: "NR70"}, {Canonical: "battery"}, {Canonical: "CLIE", OnTopic: []string{"reviewer"}},
			{Canonical: "MediCure"}, {Canonical: "Meridian Oil", OffTopic: []string{"pipeline"}},
			{Canonical: "PetroNova", Terms: []string{"PetroNova", "Petro Nova"}},
			{Canonical: "picture quality"}, {Canonical: "album"},
		}}, 1156, "da45bac125c5b7050c6a1017fe213a9d467f6cfb090b75c0084082a629d22d50"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			m, err := NewSentimentMiner(mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			count := 0
			for i, text := range texts {
				for _, f := range m.analyzeEntity(ids[i], text, nil) {
					factHash(h, f)
					count++
				}
			}
			sum := hex.EncodeToString(h.Sum(nil))
			if count != mode.count || sum != mode.sum {
				t.Errorf("%d facts, sha256 %s; pinned %d facts, sha256 %s", count, sum, mode.count, mode.sum)
			}
		})
	}
}
