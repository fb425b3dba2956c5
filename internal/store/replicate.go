package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Shard handoff ships state between nodes as WAL frames — the same
// length-prefixed, double-checksummed records the durable log already
// uses on disk (see wal.go). Reusing the codec buys the transfer path
// the WAL's corruption taxonomy for free: a frame torn or bit-flipped in
// transit fails its checksum at the receiver instead of installing a
// silently wrong entity, and the catch-up protocol can retry the batch.
// The receiver applies frames through the store's normal mutation path,
// so a durable receiver re-logs everything it catches up on and the
// shipped state survives the receiver's own next crash.

// ErrCorruptFrame reports a replication batch whose framing or checksums
// did not survive transit. Nothing after the corrupt frame is applied.
var ErrCorruptFrame = errors.New("store: corrupt replication frame")

// EncodePutFrame renders one entity as a shippable opPut WAL frame.
func EncodePutFrame(e *Entity) ([]byte, error) {
	frame, err := encodePut(e)
	if err != nil {
		return nil, fmt.Errorf("store: encode replication frame for %s: %w", e.ID, err)
	}
	return frame, nil
}

// EncodeDeleteFrame renders one tombstone as a shippable delete frame.
// A nonzero version produces a versioned (opDeleteV) frame, which the
// receiver fences against newer held copies; version 0 produces the
// legacy unconditional opDelete frame.
func EncodeDeleteFrame(id string, version uint64) []byte {
	if version > 0 {
		return encodeWALRecord(opDeleteV, encodeDeleteV(id, version))
	}
	return encodeWALRecord(opDelete, []byte(id))
}

// AppendPutFrame appends e's opPut frame to buf — the batch-builder used
// when shipping a whole shard range.
func AppendPutFrame(buf []byte, e *Entity) ([]byte, error) {
	frame, err := EncodePutFrame(e)
	if err != nil {
		return buf, err
	}
	return append(buf, frame...), nil
}

// ApplyFrames decodes every WAL frame in data and applies it to the
// store through the normal mutation path (Put/Delete — WAL-logged again
// on a durable store). It returns the number of frames consumed; a put
// frame older than the locally-held copy (Entity.Version) is skipped
// rather than installed, but still counts. On a checksum or framing
// failure it stops and returns ErrCorruptFrame (wrapped); frames before
// the corruption remain applied, so a retried batch converges (puts and
// deletes are idempotent).
func ApplyFrames(s *Store, data []byte) (applied int, err error) {
	return ApplyFramesObserved(s, data, nil)
}

// ApplyFramesObserved is ApplyFrames with a per-frame observer: observe
// is called after each frame lands, with the mutated entity for a put
// (nil for a delete or annotate). A receiving node uses it to keep its
// inverted index in step with the state it catches up on.
func ApplyFramesObserved(s *Store, data []byte, observe func(id string, e *Entity)) (applied int, err error) {
	for len(data) > 0 {
		op, body, n, derr := decodeWALRecord(data)
		if derr != nil {
			return applied, fmt.Errorf("%w: frame %d: %v", ErrCorruptFrame, applied, derr)
		}
		switch op {
		case opPut:
			e, perr := ParseEntity(body)
			if perr != nil {
				return applied, fmt.Errorf("%w: frame %d: %v", ErrCorruptFrame, applied, perr)
			}
			// Version fences: a frame is a point-in-time read of the source,
			// and a dual-written update — or a versioned delete — may have
			// landed here after the frame was shipped. Installing the older
			// frame would roll the newer copy back (or resurrect a deleted
			// entity), so it is skipped (still counted — the batch converged
			// for this ID).
			if cur, ok := s.Get(e.ID); ok && cur.Version > e.Version {
				applied++
				data = data[n:]
				continue
			}
			if tv, ok := s.tombstoneVersion(e.ID); ok && e.Version > 0 && tv >= e.Version {
				applied++
				data = data[n:]
				continue
			}
			if perr := s.Put(e); perr != nil {
				return applied, fmt.Errorf("store: apply replication frame %d: %w", applied, perr)
			}
			if observe != nil {
				observe(e.ID, e)
			}
		case opDelete:
			if derr := s.Delete(string(body)); derr != nil {
				return applied, fmt.Errorf("store: apply replication frame %d: %w", applied, derr)
			}
			if observe != nil {
				observe(string(body), nil)
			}
		case opDeleteV:
			id, v, verr := decodeDeleteV(body)
			if verr != nil {
				return applied, fmt.Errorf("%w: frame %d: %v", ErrCorruptFrame, applied, verr)
			}
			// Stale-delete fence: a copy newer than the delete stamp means a
			// later put superseded the delete; keep the copy.
			if cur, ok := s.Get(id); ok && cur.Version > v {
				applied++
				data = data[n:]
				continue
			}
			if derr := s.DeleteVersioned(id, v); derr != nil {
				return applied, fmt.Errorf("store: apply replication frame %d: %w", applied, derr)
			}
			if observe != nil {
				observe(id, nil)
			}
		case opAnnotate:
			rec, aerr := decodeAnnotate(body)
			if aerr != nil {
				return applied, fmt.Errorf("%w: frame %d: %v", ErrCorruptFrame, applied, aerr)
			}
			if _, aerr := s.Annotate(rec.ID, rec.Annotations); aerr != nil {
				return applied, fmt.Errorf("store: apply replication frame %d: %w", applied, aerr)
			}
			if observe != nil {
				observe(rec.ID, nil)
			}
		default:
			return applied, fmt.Errorf("%w: frame %d: unknown op %d", ErrCorruptFrame, applied, op)
		}
		applied++
		data = data[n:]
	}
	return applied, nil
}

// VersionDigest fingerprints the store's replicated state: a sha256
// over every held (id, version) pair and every retained versioned
// tombstone, in sorted-ID order. Two replicas with equal digests hold
// byte-identical version censuses, so anti-entropy can skip the full
// census exchange — the fast path of the sweep. Annotations and entity
// bodies are deliberately outside the digest: the version stamp already
// changes on every routed write, and hashing bodies would make the
// sweep cost proportional to corpus size instead of corpus count.
func (s *Store) VersionDigest() [32]byte {
	versions := s.Versions()
	ids := make([]string, 0, len(versions))
	for id := range versions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	tombs := s.TombstonesVersioned()
	tids := make([]string, 0, len(tombs))
	for id := range tombs {
		tids = append(tids, id)
	}
	sort.Strings(tids)

	h := sha256.New()
	var num [8]byte
	writePair := func(id string, v uint64) {
		binary.BigEndian.PutUint64(num[:], uint64(len(id)))
		h.Write(num[:])
		h.Write([]byte(id))
		binary.BigEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	binary.BigEndian.PutUint64(num[:], uint64(len(ids)))
	h.Write(num[:])
	for _, id := range ids {
		writePair(id, versions[id])
	}
	binary.BigEndian.PutUint64(num[:], uint64(len(tids)))
	h.Write(num[:])
	for _, id := range tids {
		writePair(id, tombs[id])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// SnapshotFrames renders the store's full contents (or, with filter
// non-nil, the entities it selects) as a concatenated frame batch in
// sorted-ID order — deterministic bytes for a deterministic state, which
// the chaos harness leans on when comparing two runs of one seed.
func (s *Store) SnapshotFrames(filter func(id string) bool) ([]byte, error) {
	ids := s.IDs()
	var buf []byte
	for _, id := range ids {
		if filter != nil && !filter(id) {
			continue
		}
		e, ok := s.Get(id)
		if !ok {
			continue // raced with a delete; the frame batch just omits it
		}
		var err error
		if buf, err = AppendPutFrame(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
