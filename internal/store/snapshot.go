package store

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// snapshotTrailerPrefix starts the checksum trailer line that closes
// every snapshot. The trailer is an XML comment, so decoders that do not
// verify checksums (Restore) still parse the document unchanged.
const snapshotTrailerPrefix = "<!-- crc32:"

// Snapshot streams the whole store to w as an XML document:
//
//	<snapshot count="N">
//	  <entity id="...">...</entity>
//	  ...
//	</snapshot>
//	<!-- crc32:xxxxxxxx -->
//
// Entities are written in deterministic (ID-sorted) order, so identical
// stores produce identical snapshots. The trailing comment carries the
// CRC32-IEEE checksum of every byte before it; VerifySnapshot and
// RestoreVerified check it, while Restore ignores it. On a durable store
// an entity that cannot be read back from the log fails the snapshot,
// as Get reports it (counted, the store degraded).
func (s *Store) Snapshot(w io.Writer) error { return s.snapshot(w, s.readFailed) }

// snapshot is Snapshot calling failed with the error of an entity that
// cannot be read back.
func (s *Store) snapshot(w io.Writer, failed func(error)) error {
	h := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := fmt.Fprintf(bw, "<snapshot count=\"%d\">\n", s.Len()); err != nil {
		return err
	}
	enc := xml.NewEncoder(bw)
	enc.Indent("  ", "  ")
	// Iterate in globally ID-sorted order (not ForEach's shard-grouped
	// order) so stores holding the same entities emit identical bytes
	// regardless of their shard counts.
	for _, id := range s.IDs() {
		e, err := s.get(id)
		if err != nil {
			failed(err)
			return fmt.Errorf("store: snapshot: %w", err)
		}
		if e == nil {
			continue // deleted concurrently
		}
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	if _, err := io.WriteString(bw, "\n</snapshot>\n"); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s%08x -->\n", snapshotTrailerPrefix, h.Sum32())
	return err
}

// VerifySnapshot checks a snapshot's checksum trailer and returns the
// document body it covers. It fails when the trailer is missing,
// unparsable, or does not match the body — the signal to quarantine the
// snapshot and fall back to an older one during recovery.
func VerifySnapshot(data []byte) ([]byte, error) {
	idx := bytes.LastIndex(data, []byte(snapshotTrailerPrefix))
	if idx < 0 {
		return nil, fmt.Errorf("store: snapshot missing checksum trailer")
	}
	rest := data[idx+len(snapshotTrailerPrefix):]
	if len(rest) < 8 {
		return nil, fmt.Errorf("store: snapshot checksum trailer truncated")
	}
	want, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot checksum trailer unparsable: %w", err)
	}
	body := data[:idx]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("store: snapshot checksum mismatch: have %08x, trailer says %08x", got, want)
	}
	return body, nil
}

// Restore reads a snapshot produced by Snapshot and puts every entity into
// the store (existing entities with the same IDs are replaced). It returns
// the number of entities restored. The checksum trailer, if present, is
// not verified — use RestoreVerified when integrity matters.
func (s *Store) Restore(r io.Reader) (int, error) {
	dec := xml.NewDecoder(bufio.NewReader(r))
	n := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("store: restore: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok || start.Name.Local != "entity" {
			continue
		}
		var e Entity
		if err := dec.DecodeElement(&e, &start); err != nil {
			return n, fmt.Errorf("store: restore entity %d: %w", n, err)
		}
		if err := s.Put(&e); err != nil {
			return n, fmt.Errorf("store: restore entity %d: %w", n, err)
		}
		n++
	}
}

// RestoreVerified reads the whole snapshot, verifies its checksum
// trailer, and only then restores it. A snapshot that fails verification
// restores nothing.
func (s *Store) RestoreVerified(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("store: restore: %w", err)
	}
	body, err := VerifySnapshot(data)
	if err != nil {
		return 0, err
	}
	return s.Restore(bytes.NewReader(body))
}
