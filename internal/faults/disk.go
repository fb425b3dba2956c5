package faults

import "webfountain/internal/durable"

// Disk-fault injection: a deterministic wrapper over durable.File, the
// one surface every durable writer appends through, mirroring the
// Conn/Client wrappers. Three fault shapes cover how real disks lose
// data:
//
//   - torn write  — a Write persists only a prefix and fails: the on-disk
//     image a crash mid-append leaves behind;
//   - bit flip    — one bit of the written data is flipped silently;
//   - sync fail   — Sync errors, so acknowledged data may not be durable.
//
// All decisions come from the injector's single seeded PRNG, so a
// sequential writer (the store's WAL appends are serialized) replays the
// exact same fault placement under a fixed seed — which is what lets a
// crash-recovery scenario be re-run byte-for-byte.

// Disk-fault decisions, disjoint from the transport decision set.
const (
	tornWrite decision = iota + 100
	bitFlip
	syncFail
)

// diskOp selects which fault set a disk operation draws from.
type diskOp int

const (
	diskWrite diskOp = iota
	diskSync
)

// decideDisk draws the next disk fault decision for one operation.
func (in *Injector) decideDisk(op diskOp) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rng.Float64()
	switch op {
	case diskWrite:
		cum := in.cfg.TornWriteRate
		if r < cum {
			in.stats.TornWrites++
			return tornWrite
		}
		cum += in.cfg.BitFlipRate
		if r < cum {
			in.stats.BitFlips++
			return bitFlip
		}
	case diskSync:
		if r < in.cfg.SyncFailRate {
			in.stats.SyncFailures++
			return syncFail
		}
	}
	return deliver
}

// tornWriteBytes reads the torn-write cap under the lock (the config
// may be swapped concurrently by a running schedule).
func (in *Injector) tornWriteBytes() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg.TornWriteBytes
}

// intn draws a bounded int from the injector's PRNG (n must be > 0).
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

type faultyFile struct {
	in *Injector
	f  durable.File
}

// File wraps a file so Writes may be torn or bit-flipped and Syncs may
// fail. It is a durable.Wrap: the method value drops into
// store.Options.WrapFile (live WAL, compaction snapshot temp file).
func (in *Injector) File(f durable.File) durable.File { return &faultyFile{in: in, f: f} }

func (ff *faultyFile) Write(p []byte) (int, error) {
	switch ff.in.decideDisk(diskWrite) {
	case tornWrite:
		n := 0
		if len(p) > 0 {
			n = ff.in.intn(len(p))
			if max := ff.in.tornWriteBytes(); max > 0 && n > max {
				n = max
			}
		}
		if n > 0 {
			if wn, err := ff.f.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		return n, &Error{Op: "disk-write", Transient: false}
	case bitFlip:
		flipped := make([]byte, len(p))
		copy(flipped, p)
		if len(flipped) > 0 {
			flipped[ff.in.intn(len(flipped))] ^= 1 << uint(ff.in.intn(8))
		}
		return ff.f.Write(flipped)
	}
	return ff.f.Write(p)
}

func (ff *faultyFile) Sync() error {
	if ff.in.decideDisk(diskSync) == syncFail {
		return &Error{Op: "disk-sync", Transient: false}
	}
	return ff.f.Sync()
}

func (ff *faultyFile) Close() error { return ff.f.Close() }
