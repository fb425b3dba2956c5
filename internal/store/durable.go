package store

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"webfountain/internal/durable"
)

// The durable store keeps its state in one data directory:
//
//	snapshot-<gen>.xml   — compacted, checksum-trailed snapshots
//	wal-<gen>.log        — the write-ahead log built on snapshot <gen>
//	quarantine.log       — raw bytes of corrupt records, for forensics
//	*.corrupt            — snapshots that failed checksum verification
//
// Open loads the newest snapshot that verifies, replays every WAL whose
// generation is at least the snapshot's (ascending), truncates torn
// tails, quarantines corrupt records, and then appends new mutations to
// the highest-generation WAL. Compact writes snapshot gen+1, rotates to
// wal gen+1, and prunes everything older than the previous generation —
// keeping one snapshot+WAL pair of history so a snapshot that rots on
// disk can still be reconstructed from its predecessor plus that WAL.
//
// The logs are also where the store reads its entities from: the shards
// of a durable store are a keydir (Bitcask's), holding for each logged
// entity the generation, offset and length of its put record and of
// each annotate record after it, and every read decodes the entity from
// those records, checksums checked, through one read-only handle per
// live generation. Entities with no record to point into stay resident:
// those loaded from a snapshot, and those whose records were in a log a
// compaction removes, which it reads into memory first.

// ErrReadOnly is wrapped by every mutation rejected because the store is
// in degraded read-only mode: the WAL could not be appended or synced, so
// accepting more writes would acknowledge data that cannot be recovered.
var ErrReadOnly = errors.New("store: degraded read-only mode")

// Options tunes a durable store opened with Open. The zero value selects
// 16 shards and a sync on every record.
type Options struct {
	// Shards is the number of store shards (default 16).
	Shards int
	// SyncEvery syncs the WAL to stable storage once at least that many
	// records have been appended since the last sync (default and minimum
	// 1: every commit). Larger values trade a window of
	// acknowledged-but-unsynced writes for throughput.
	SyncEvery int
	// CompactEvery, when positive, compacts automatically after that
	// many records have been appended since the last compaction
	// (0: compaction only happens via explicit Compact calls).
	CompactEvery int
	// WrapFile, when set, wraps every file the store writes durably — the
	// live WAL handle and the compaction snapshot's temp file — the hook
	// the deterministic disk-fault injector uses in crash-recovery tests.
	WrapFile durable.Wrap
}

// DurabilityStats describes a durable store's persistence state.
type DurabilityStats struct {
	// Dir is the data directory.
	Dir string
	// Generation is the current snapshot/WAL generation.
	Generation uint64
	// SnapshotLoaded reports whether recovery loaded a snapshot.
	SnapshotLoaded bool
	// Replayed is the number of WAL records applied during recovery.
	Replayed int
	// Quarantined counts corrupt records, snapshots, and unframeable log
	// tails set aside during recovery instead of being applied.
	Quarantined int
	// TruncatedBytes is the torn-tail byte count dropped at recovery.
	TruncatedBytes int
	// Appended is the number of records logged since open or the last
	// compaction (a PutBatch commit counts each of its records).
	Appended int
	// Syncs is the number of WAL syncs since open.
	Syncs int
	// Batches is the number of WAL commits since open: each is one
	// append covering the writers that arrived during the commit before
	// it, so Appended/Batches is the records-per-write rate.
	Batches int
	// Degraded reports read-only mode; Reason says why.
	Degraded bool
	Reason   string
}

// durability is the persistence state of a durable store.
type durability struct {
	mu   sync.Mutex
	dir  string
	opts Options

	gen  uint64
	wal  durable.File
	size int64 // the live WAL's length: where the next commit lands

	// rmu guards files, the read-only handle of every generation a ref
	// can point into; nil once the store is closed. A read holds rmu
	// shared across its ReadAt.
	rmu   sync.RWMutex
	files map[uint64]*os.File

	appended  int
	sinceSync int
	syncs     int
	batches   int

	replayed    int
	quarantined int
	truncated   int
	snapLoaded  bool

	// Commit state. next is the batch the next commit will write, led by
	// its first writer; queue holds writers that arrived after next was
	// fixed. A commit runs with mu released around its file I/O (busy
	// set), so arrivals meanwhile join queue, and when it completes the
	// queue becomes next: a batch is exactly the writers that arrived
	// during the previous commit. idle is broadcast after every commit:
	// it wakes the batch's followers, the next leader, and
	// Close/Compact/Update waiting for the WAL to be free.
	next  []*walReq
	queue []*walReq
	busy  bool
	idle  *sync.Cond

	degraded string // reason; "" while healthy
	closed   bool
}

// walReq is one writer's records waiting for, or riding, a commit: n
// framed records in rec, applied together by apply, which is told the
// generation and offset of the log where rec landed. rec stays the
// writer's until its logged call returns; the commit that carries it
// only reads it, except the leader's, which the commit may extend with
// its followers' records (commitLocked).
type walReq struct {
	rec   []byte
	n     int
	apply func(gen uint32, off int64)
	done  bool
	err   error
}

// readBufs holds the buffers logged entities are read into, as *[]byte.
// A decoded entity copies what it keeps, so a buffer is free again once
// the entity is decoded.
var readBufs sync.Pool

// walBufs holds PutBatch's encode buffers between commits, as *[]byte,
// so a bulk ingest request reuses one instead of allocating its WAL
// record. A buffer above maxPooledBuf is left to the collector, so one
// large batch pins nothing once it is logged.
var walBufs sync.Pool

// maxPooledBuf is the largest encode buffer walBufs keeps: 1 MiB, several
// 32-document bulk requests of ~6 KB documents.
const maxPooledBuf = 1 << 20

var (
	snapshotFiles = durable.Family{Prefix: "snapshot", Suffix: ".xml", Base: 10, Width: 8}
	walFiles      = durable.Family{Prefix: "wal", Suffix: ".log", Base: 10, Width: 8}
)

// openWAL opens (creating if absent) generation gen's log for appending
// and fsyncs the directory, so a fresh WAL's name cannot vanish in a
// power cut after writes were acknowledged into it.
func (d *durability) openWAL(gen uint64) (durable.File, error) {
	f, err := os.OpenFile(walFiles.Path(d.dir, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := durable.SyncDir(d.dir); err != nil {
		_ = f.Close() // nothing written; the sync error is the one to report
		return nil, err
	}
	if d.opts.WrapFile != nil {
		return d.opts.WrapFile(f), nil
	}
	return f, nil
}

// Open creates or recovers a durable store rooted at dir. Recovery loads
// the newest snapshot that passes checksum verification (quarantining
// ones that do not), replays the write-ahead logs on top of it, truncates
// any torn tail left by a crash mid-append, quarantines corrupt records,
// and leaves the store ready to append. Every mutation acknowledged
// before a crash is present afterwards (subject to Options.SyncEvery).
func Open(dir string, opts Options) (*Store, error) {
	if opts.Shards < 1 {
		opts.Shards = 16
	}
	if opts.SyncEvery < 1 {
		opts.SyncEvery = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// Recovery applies without logging; the durability state is attached
	// only once the store is caught up, so replay never re-logs.
	s := New(opts.Shards)
	for _, sh := range s.shards {
		sh.refs = make(map[string]logRefs)
	}
	d := &durability{dir: dir, opts: opts, files: map[uint64]*os.File{}}
	d.idle = sync.NewCond(&d.mu)
	if err := d.recover(s); err != nil {
		d.closeFiles()
		s.uncount()
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s.dur = d
	return s, nil
}

// recover loads the store's state from d.dir and opens the WAL to
// append to and the handles to read from.
func (d *durability) recover(s *Store) error {
	// Load the newest snapshot whose checksum verifies.
	var body []byte
	gen, ok, quarantined, err := snapshotFiles.Load(d.dir, func(data []byte) (verr error) {
		body, verr = VerifySnapshot(data)
		return verr
	})
	d.quarantined += quarantined
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	if ok {
		if _, err := s.Restore(bytes.NewReader(body)); err != nil {
			return fmt.Errorf("snapshot gen %d: %w", gen, err)
		}
		d.gen = gen
		d.snapLoaded = true
	}

	// Replay WALs from the loaded generation forward. A framing loss
	// (corrupt record header) degrades the store and ends replay: the
	// records after the loss — in this log and any later generation —
	// cannot be trusted to form a consistent history.
	for _, g := range walFiles.Gens(d.dir) {
		if g < d.gen {
			continue
		}
		if err := d.replayWAL(s, g); err != nil {
			return err
		}
		if g > d.gen {
			d.gen = g
		}
		if d.degraded != "" {
			break
		}
	}

	// Append to the current generation's WAL from here on.
	if d.wal, err = d.openWAL(d.gen); err != nil {
		return err
	}
	if err := d.openReader(d.gen); err != nil {
		return err
	}
	fi, err := d.files[d.gen].Stat()
	if err != nil {
		return err
	}
	d.size = fi.Size()
	return nil
}

// openReader opens generation gen's log read-only for the refs into it,
// unless it is open already.
func (d *durability) openReader(gen uint64) error {
	if d.files[gen] != nil {
		return nil
	}
	f, err := os.Open(walFiles.Path(d.dir, gen))
	if err != nil {
		return err
	}
	d.rmu.Lock()
	d.files[gen] = f
	d.rmu.Unlock()
	return nil
}

// closeFiles closes every read handle; reads from then on find the
// store closed.
func (d *durability) closeFiles() {
	d.rmu.Lock()
	defer d.rmu.Unlock()
	for _, f := range d.files {
		_ = f.Close() // read-only
	}
	d.files = nil
}

// replayWAL applies generation gen's WAL file to the store, reading it
// record by record: valid records are applied in order, a put or
// annotate record as a ref to where it is (applyRecordAt), a corrupt
// record is quarantined and skipped, a torn tail truncates the file in
// place so the next append starts on a record boundary, and a corrupt
// record header — framing lost mid-file — quarantines the whole
// remaining tail and degrades the store rather than silently dropping
// the acknowledged records the tail may hold. An intact record of an op
// this binary does not know fails the replay and leaves the file as it
// is. The log's read handle stays open for the refs into it.
func (d *durability) replayWAL(s *Store, gen uint64) error {
	path := walFiles.Path(d.dir, gen)
	name := filepath.Base(path)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("replay %s: %w", name, err)
	}
	d.rmu.Lock()
	d.files[gen] = f
	d.rmu.Unlock()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, replayBuffer)
	var (
		off int64
		buf []byte
	)
	for off < size {
		var (
			op   byte
			body []byte
			n    int64
			derr error
		)
		op, body, n, buf, derr = readWALRecord(r, size-off, buf)
		switch {
		case errors.Is(derr, errCorruptRecord):
			d.quarantine(bytes.NewReader(buf[:n]))
			off += n
			continue
		case errors.Is(derr, errBadHeader):
			// The length field cannot be trusted, so nothing after this
			// point can be reframed reliably. Preserve the tail for
			// forensics, truncate so the file ends on a record boundary,
			// and refuse further writes: the loss must be surfaced, not
			// papered over.
			d.quarantine(io.NewSectionReader(f, off, size-off))
			if terr := os.Truncate(path, off); terr != nil {
				return fmt.Errorf("replay %s: truncate corrupt tail: %w", name, terr)
			}
			d.degrade(fmt.Sprintf("wal framing lost: %s offset %d: %v", name, off, derr))
			return nil
		case errors.Is(derr, errTornRecord):
			// Torn tail: drop it so appends resume on a clean boundary.
			d.truncated += int(size - off)
			if terr := os.Truncate(path, off); terr != nil {
				return fmt.Errorf("replay %s: truncate torn tail: %w", name, terr)
			}
			return nil
		case derr != nil:
			return fmt.Errorf("replay %s: offset %d: %w", name, off, derr)
		}
		at := recRef{gen: uint32(gen), n: uint32(n), off: off}
		if aerr := s.applyRecordAt(op, body, at); errors.Is(aerr, errUnknownOp) {
			// The checksum covers the op byte, so this record is intact:
			// a newer binary wrote it. Skipping it would open a store
			// that silently lacks acknowledged data, so refuse to open
			// and leave the log as it is.
			return fmt.Errorf("replay %s: offset %d: %w", name, off, aerr)
		} else if aerr != nil {
			d.quarantine(bytes.NewReader(buf[:n]))
		} else {
			d.replayed++
		}
		off += n
	}
	return nil
}

// replayBuffer is the size of the buffered reader replay streams a log
// through; a record longer than it is read into a buffer of its own.
const replayBuffer = 64 << 10

// errUnknownOp reports a checksum-valid WAL record whose op this binary
// does not know.
var errUnknownOp = errors.New("unknown wal op")

// applyRecord applies one decoded WAL record to a store that keeps what
// it applies resident: at has no log to point into.
func applyRecord(s *Store, op byte, body []byte) error {
	return s.applyRecordAt(op, body, recRef{})
}

// applyRecordAt applies one decoded WAL record of any op this store
// replays. A put record found in the log at at (at.n > 0) makes its
// entity logged, a ref to it under a copy of the ID; without one, the
// decoded entity is installed resident. An annotate record adds at, or
// its annotations to a resident entity; a missing ID means the record
// raced a delete at log time and is a no-op.
func (s *Store) applyRecordAt(op byte, body []byte, at recRef) error {
	switch op {
	case opPut, opPutPlain, opPutXML:
		e, err := decodeEntityRecord(op, body)
		switch {
		case err != nil:
			return err
		case at.n == 0:
			s.install(e)
		default:
			s.setRefs(strings.Clone(e.ID), logRefs{put: at})
		}
		return nil
	case opAnnotate, opAnnotatePlain, opAnnotateXML:
		id, anns, err := decodeAnnotateRecord(op, body)
		if err != nil {
			return err
		}
		// Assigning to a key a map holds stores the new key string, and
		// id is cut from the whole decoded record.
		s.annotated(strings.Clone(id), anns, at)
		return nil
	case opDelete:
		s.remove(string(body))
		return nil
	case opDeleteV:
		id, err := legacyDeleteID(body)
		if err != nil {
			return err
		}
		s.remove(id)
		return nil
	}
	return fmt.Errorf("%w %d: written by a newer version of the store", errUnknownOp, op)
}

// errClosed reports a read of a logged entity after Close, which closed
// the handles it would be read through.
var errClosed = errors.New("store: closed")

// load decodes the logged entity id from its records r: its put record,
// then each annotate record in log order, each read whole and its
// checksums checked.
func (d *durability) load(id string, r logRefs) (*Entity, error) {
	bp, _ := readBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer readBufs.Put(bp)
	d.rmu.RLock()
	defer d.rmu.RUnlock()
	if d.files == nil {
		return nil, errClosed
	}
	op, body, err := d.read(r.put, bp)
	if err != nil {
		return nil, err
	}
	e, err := decodeEntityRecord(op, body)
	if err == nil && e.ID != id {
		err = fmt.Errorf("store: record of %q where %q was logged", e.ID, id)
	}
	if err != nil {
		return nil, d.readError(r.put, err)
	}
	e.XMLName = xml.Name{}
	if r.ann.n == 0 {
		return e, nil
	}
	for i := -1; i < len(r.more); i++ {
		a := r.ann
		if i >= 0 {
			a = r.more[i]
		}
		op, body, err := d.read(a, bp)
		if err != nil {
			return nil, err
		}
		aid, anns, err := decodeAnnotateRecord(op, body)
		if err == nil && aid != id {
			err = fmt.Errorf("store: annotations of %q where %q was logged", aid, id)
		}
		if err != nil {
			return nil, d.readError(a, err)
		}
		if len(e.Annotations) == 0 {
			e.Annotations = anns // the decoded slice is the entity's own
		} else {
			e.Annotations = append(e.Annotations, anns...)
		}
	}
	return e, nil
}

// read reads the record r refers to into *bp, grown as needed, and
// checks its checksums. The caller holds rmu shared, with files open.
func (d *durability) read(r recRef, bp *[]byte) (op byte, body []byte, err error) {
	f := d.files[uint64(r.gen)]
	if f == nil {
		return 0, nil, d.readError(r, errors.New("no open log"))
	}
	buf := slices.Grow((*bp)[:0], int(r.n))[:r.n]
	*bp = buf
	if _, err := f.ReadAt(buf, r.off); err != nil {
		return 0, nil, d.readError(r, err)
	}
	op, body, n, err := decodeWALRecord(buf)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("frame of %d bytes where %d were logged", n, len(buf))
	}
	if err != nil {
		return 0, nil, d.readError(r, err)
	}
	return op, body, nil
}

// readError names the record a read failed at.
func (d *durability) readError(r recRef, err error) error {
	return fmt.Errorf("store: read %s offset %d: %w", filepath.Base(walFiles.Path(d.dir, uint64(r.gen))), r.off, err)
}

// readFailed acts on an entity read back from the log that failed after
// the store opened: it counts in store.read.errors and degrades the
// store with the reason, as a WAL failure does, and the reader reports
// the entity absent. A read after Close is not a failure.
func (s *Store) readFailed(err error) {
	if errors.Is(err, errClosed) {
		return
	}
	d := s.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readFailedLocked(err)
}

// readFailedLocked is readFailed for a caller holding d.mu.
func (d *durability) readFailedLocked(err error) {
	if errors.Is(err, errClosed) {
		return
	}
	readErrors.Inc()
	d.degrade(err.Error())
}

// uncount takes a durable store's entities out of the process-wide
// gauges, when it closes.
func (s *Store) uncount() {
	for _, sh := range s.shards {
		sh.mu.RLock()
		kindGauges[resident].Add(-int64(len(sh.entities)))
		kindGauges[logged].Add(-int64(len(sh.refs)))
		sh.mu.RUnlock()
	}
}

// residentBelow reads every logged entity with a record in a generation
// below gen into memory, so that the logs below gen can go. It stops at
// the first entity it cannot read, which stays logged.
func (s *Store) residentBelow(gen uint64) error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, r := range sh.refs {
			if !r.below(gen) {
				continue
			}
			e, err := s.dur.load(id, r)
			if err != nil {
				sh.mu.Unlock()
				return err
			}
			delete(sh.refs, id)
			sh.entities[id] = e
			sh.moved(logged, resident)
		}
		sh.mu.Unlock()
	}
	return nil
}

// quarantine appends the raw bytes of a corrupt record, or of a log's
// unframeable tail, to quarantine.log (best effort) and counts it.
func (d *durability) quarantine(rec io.Reader) {
	d.quarantined++
	f, err := os.OpenFile(filepath.Join(d.dir, "quarantine.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = io.Copy(f, rec)
}

// writableLocked reports why the store cannot accept a mutation, nil
// while it can. The caller holds d.mu.
func (d *durability) writableLocked() error {
	if d.closed {
		return fmt.Errorf("store: closed")
	}
	if d.degraded != "" {
		return fmt.Errorf("%w: %s", ErrReadOnly, d.degraded)
	}
	return nil
}

// logged makes one writer's n records durable and then applies them
// (apply runs once, after the sync, told where rec landed). A writer that
// finds the WAL free commits at once — a lone writer is a batch of one —
// and writers that arrive while a commit is in flight ride the next one
// together, led by the first of them. Either way the call returns only
// once the record is durable under the sync policy and applied, or with
// the error that failed its batch.
func (s *Store) logged(rec []byte, n int, apply func(gen uint32, off int64)) error {
	d := s.dur
	req := &walReq{rec: rec, n: n, apply: apply}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.busy && len(d.next) == 0 {
		d.next = []*walReq{req}
	} else {
		d.queue = append(d.queue, req)
	}
	for !req.done && (d.busy || d.next[0] != req) {
		d.idle.Wait()
	}
	if !req.done {
		s.commitLocked(d.next)
	}
	return req.err
}

// commitLocked is the one WAL write path: append the batch's records in
// a single write, sync per the sync policy, apply the mutations in log
// order, each told where its records landed (the write's offset plus
// the records of the writers before it), complete every waiter, and
// compact when due. Log order is apply
// order because only one commit runs at a time, so replay reconstructs
// exactly the in-memory history. A failed append or sync flips the store
// into degraded read-only mode and fails the whole batch un-applied:
// none of its writers is acknowledged, so recovery surfacing any prefix
// of the batch (what reached the disk before the failure) never
// contradicts an ack, no later write is accepted, and readers keep
// working from the state they had.
//
// The caller holds d.mu and has seen !d.busy; batch is d.next or, for
// Update, a batch of its own taken while nothing was waiting. d.mu is
// released around the file I/O with d.busy set; Close, Compact and
// Update wait on d.idle for it to clear.
func (s *Store) commitLocked(batch []*walReq) {
	d := s.dur
	d.next = nil
	var (
		gen uint32
		at  int64
	)
	err := d.writableLocked()
	if err == nil {
		// The followers' records are appended to the leader's: the
		// leader is the writer running this commit, so its buffer stays
		// its own (and out of any pool) until the commit is done, and
		// every follower's buffer is only read.
		buf, records := batch[0].rec, batch[0].n
		for _, r := range batch[1:] {
			buf = append(buf, r.rec...)
			records += r.n
		}
		wal, doSync := d.wal, d.sinceSync+records >= d.opts.SyncEvery
		gen, at = uint32(d.gen), d.size
		d.busy = true
		d.mu.Unlock()
		reason := appendWAL(wal, buf, doSync)
		d.mu.Lock()
		d.busy = false
		if reason != "" {
			d.degrade(reason)
			err = d.writableLocked()
		} else {
			d.size += int64(len(buf))
			walAppends.Add(int64(records))
			walBatchRecords.Observe(int64(records))
			d.appended += records
			d.batches++
			d.sinceSync += records
			if doSync {
				walSyncs.Inc()
				d.syncs++
				d.sinceSync = 0
			}
		}
	}
	for _, r := range batch {
		if err == nil {
			r.apply(gen, at)
			at += int64(len(r.rec))
		}
		r.err, r.done = err, true
	}
	d.next, d.queue = d.queue, nil
	d.idle.Broadcast()
	if err == nil && d.opts.CompactEvery > 0 && d.appended >= d.opts.CompactEvery {
		if cerr := s.compactLocked(); cerr != nil {
			d.degrade("compaction failed: " + cerr.Error())
		}
	}
}

// appendWAL writes buf to the live WAL and, when asked, syncs it,
// returning the degradation reason on failure ("" on success).
func appendWAL(wal durable.File, buf []byte, doSync bool) string {
	if _, err := wal.Write(buf); err != nil {
		return "wal append failed: " + err.Error()
	}
	if doSync {
		span := walFsyncNs.Start()
		if err := wal.Sync(); err != nil {
			return "wal sync failed: " + err.Error()
		}
		span.End()
	}
	return ""
}

// Compact writes a checksummed snapshot of the current state as the next
// generation, rotates the WAL, and prunes files older than the previous
// generation. A successful compaction bounds recovery time to one
// snapshot load plus the records appended since.
func (s *Store) Compact() error {
	d := s.dur
	if d == nil {
		return fmt.Errorf("store: compact: not a durable store")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy {
		d.idle.Wait()
	}
	if err := d.writableLocked(); err != nil {
		return err
	}
	return s.compactLocked()
}

// compactLocked does the compaction work; the caller holds d.mu and
// nobody owns the WAL.
//
// Failure atomicity: every step that can fail cleanly runs BEFORE the
// snapshot is renamed into place, and each undoes — on error the store
// is still entirely on the old generation, appending to the old WAL, and
// recovery (which would load the old snapshot and replay the old WAL)
// loses nothing, so the caller may keep acknowledging writes. The next
// generation's WAL is created, and its directory entry made durable,
// before the snapshot becomes visible: once snapshot-newGen exists,
// recovery roots there and skips wal-oldGen entirely, so acked writes
// must never flow into the old log past that point.
func (s *Store) compactLocked() error {
	d := s.dur
	newGen := d.gen + 1
	newWAL, err := d.openWAL(newGen)
	if err != nil {
		return fmt.Errorf("store: compact: rotate wal: %w", err)
	}
	if err = d.openReader(newGen); err == nil {
		err = snapshotFiles.Publish(d.dir, newGen, d.opts.WrapFile, func(w io.Writer) error {
			return s.snapshot(w, d.readFailedLocked)
		})
	}
	if err != nil && !errors.Is(err, durable.ErrUnsynced) {
		_ = newWAL.Close() // never written to
		_ = os.Remove(walFiles.Path(d.dir, newGen))
		d.rmu.Lock()
		if f := d.files[newGen]; f != nil {
			_ = f.Close() // read-only
			delete(d.files, newGen)
		}
		d.rmu.Unlock()
		return fmt.Errorf("store: compact: %w", err)
	}

	// The snapshot is in place: switch appends to the new generation.
	// The old log is superseded by the snapshot, so its final sync and
	// close cannot lose anything recovery would read.
	_ = d.wal.Sync()
	_ = d.wal.Close()
	d.wal = newWAL
	d.gen = newGen
	d.size = 0
	d.appended = 0
	d.sinceSync = 0

	if err != nil {
		// The snapshot rename may not be durable. The on-disk state is
		// still recoverable (the fallback generation is kept), but a
		// directory that cannot fsync cannot be trusted with further
		// acknowledgements.
		d.degrade("compaction failed: " + err.Error())
		return fmt.Errorf("store: compact: %w", err)
	}

	// Keep the new snapshot and the newest PREVIOUS one still on disk: if
	// snapshot-newGen rots, recovery falls back to that one, so every WAL
	// from its generation forward must survive. Normally that is
	// generation newGen-1; after a crashed compaction that bumped the WAL
	// generation without publishing a snapshot it is older, and keying
	// the WAL prune off the snapshot actually kept leaves the whole
	// fallback chain intact. With no previous snapshot every WAL stays.
	// The entities with a record in a log about to go are read into
	// memory first, so no ref outlives its file; one that cannot be read
	// keeps its log, and the store degrades.
	if kept := snapshotFiles.Prune(d.dir, newGen, 2); len(kept) == 2 {
		if err := s.residentBelow(kept[1]); err != nil {
			d.readFailedLocked(err)
			return fmt.Errorf("store: compact: %w", err)
		}
		d.rmu.Lock()
		for g, f := range d.files {
			if g < kept[1] {
				_ = f.Close() // read-only
				delete(d.files, g)
			}
		}
		d.rmu.Unlock()
		walFiles.RemoveBelow(d.dir, kept[1])
	}
	compactions.Inc()
	return nil
}

// Close flushes and closes the WAL and the handles logged entities are
// read through. A durable store must not be mutated after Close. Reads
// keep answering from the keydir and the resident entities: Len and IDs
// are unchanged, a resident entity reads as before, and a logged one is
// reported absent by Get, View and ForEach (a Snapshot fails). Closing
// an in-memory store is a no-op.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// An in-flight commit finishes first: its writers were promised a
	// durable ack and it owns the WAL handle.
	for d.busy {
		d.idle.Wait()
	}
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.degraded == "" && d.sinceSync > 0 {
		err = d.wal.Sync()
		d.sinceSync = 0
		d.syncs++
	}
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	d.closeFiles()
	s.uncount()
	return err
}

// Degraded reports whether the store is in degraded read-only mode and
// why. In-memory stores are never degraded.
func (s *Store) Degraded() (bool, string) {
	d := s.dur
	if d == nil {
		return false, ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded != "", d.degraded
}

// Durable reports whether the store persists mutations to disk.
func (s *Store) Durable() bool { return s.dur != nil }

// Durability returns a snapshot of the persistence counters. The zero
// value is returned for in-memory stores.
func (s *Store) Durability() DurabilityStats {
	d := s.dur
	if d == nil {
		return DurabilityStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return DurabilityStats{
		Dir:            d.dir,
		Generation:     d.gen,
		SnapshotLoaded: d.snapLoaded,
		Replayed:       d.replayed,
		Quarantined:    d.quarantined,
		TruncatedBytes: d.truncated,
		Appended:       d.appended,
		Syncs:          d.syncs,
		Batches:        d.batches,
		Degraded:       d.degraded != "",
		Reason:         d.degraded,
	}
}
