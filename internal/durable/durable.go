// Package durable is the one place files are made crash-safe: the file
// surface every durable writer appends through (and the seam fault
// injection wraps), the directory fsync, and the atomic publish / load /
// prune of generation-numbered files that the store's snapshots (and the
// retired serving-checkpoint codec the benchmark still links) are kept
// as.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// File is the write surface of a durable file — the subset of *os.File
// the WAL and the snapshot temp file use.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Wrap wraps a freshly opened File before anything is written to it. It
// is the single fault-injection seam: tests substitute implementations
// that tear writes or fail syncs (faults.Injector.File is one). Nil
// means no wrapping.
type Wrap func(File) File

// ErrUnsynced is wrapped by Publish when the file was renamed into place
// but the directory fsync after it failed: the file is visible under its
// real name and may not survive a power cut.
var ErrUnsynced = errors.New("durable: directory sync after publish failed")

// SyncDir fsyncs a directory so recently created or renamed entries in
// it survive a power failure — syncing a file's data does not make its
// name durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}

// Family names one series of generation-numbered files in a directory:
// <Prefix>-<gen><Suffix>, the generation written in Base zero-padded to
// Width digits. "Newest" is the highest generation, never an mtime.
type Family struct {
	Prefix, Suffix string
	Base, Width    int
}

// Path returns the file path of one generation.
func (f Family) Path(dir string, gen uint64) string {
	digits := strconv.FormatUint(gen, f.Base)
	if pad := f.Width - len(digits); pad > 0 {
		digits = strings.Repeat("0", pad) + digits
	}
	return filepath.Join(dir, f.Prefix+"-"+digits+f.Suffix)
}

// Gens returns the generations present in dir, ascending (nil when the
// directory cannot be read).
func (f Family) Gens(dir string) []uint64 {
	entries, _ := os.ReadDir(dir)
	return f.gensOf(entries)
}

func (f Family) gensOf(entries []fs.DirEntry) []uint64 {
	var gens []uint64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, f.Prefix+"-") || !strings.HasSuffix(name, f.Suffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, f.Prefix+"-"), f.Suffix)
		if g, err := strconv.ParseUint(mid, f.Base, 64); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// Publish atomically writes generation gen: temp file → write → fsync →
// close → rename → directory fsync, so a crash at any instant leaves
// either no file under the real name or a complete one — never a torn
// one. wrap, when non-nil, wraps the temp file handle. Any failure
// before the rename removes the temp file and leaves the directory as it
// was; a failure of the final directory fsync wraps ErrUnsynced.
func (f Family) Publish(dir string, gen uint64, wrap Wrap, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, f.Prefix+"-*.tmp")
	if err != nil {
		return err
	}
	var w File = tmp
	if wrap != nil {
		w = wrap(tmp)
	}
	if err = write(w); err == nil {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), f.Path(dir, gen))
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // never published; best-effort cleanup
		return err
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("%w: %v", ErrUnsynced, err)
	}
	return nil
}

// Load finds the newest generation in dir whose bytes verify accepts.
// Every newer file verify rejects is quarantined — renamed *.corrupt for
// post-mortem — and the next-older generation is tried; quarantined
// counts them. Stray temp files of the family, left by a crash
// mid-Publish, are removed: they were never published, so they carry no
// authority. A missing directory holds no generations. A read error
// (EIO, EPERM, a flaky mount) is returned rather than treated as
// corruption: failing beats demoting a possibly-good file and losing
// what only it holds.
func (f Family) Load(dir string, verify func(data []byte) error) (gen uint64, ok bool, quarantined int, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, 0, nil
	}
	if err != nil {
		return 0, false, 0, err
	}
	for _, ent := range entries {
		if name := ent.Name(); strings.HasPrefix(name, f.Prefix+"-") && strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(dir, name)) // best-effort cleanup
		}
	}
	gens := f.gensOf(entries)
	for i := len(gens) - 1; i >= 0; i-- {
		path := f.Path(dir, gens[i])
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, false, quarantined, err
		}
		if verify(data) != nil {
			_ = os.Rename(path, path+".corrupt") // best effort: a file left in place is re-rejected next time
			quarantined++
			continue
		}
		return gens[i], true, quarantined, nil
	}
	return 0, false, quarantined, nil
}

// Prune removes all but the keep newest generations at or below newest,
// never touching a generation above it, and returns the generations
// kept, newest first. Best-effort: a file that cannot be removed is
// retried by the next prune.
func (f Family) Prune(dir string, newest uint64, keep int) []uint64 {
	var kept []uint64
	gens := f.Gens(dir)
	for i := len(gens) - 1; i >= 0; i-- {
		switch {
		case gens[i] > newest:
		case len(kept) < keep:
			kept = append(kept, gens[i])
		default:
			_ = os.Remove(f.Path(dir, gens[i]))
		}
	}
	return kept
}

// RemoveBelow removes every generation older than gen (best-effort).
func (f Family) RemoveBelow(dir string, gen uint64) {
	for _, g := range f.Gens(dir) {
		if g < gen {
			_ = os.Remove(f.Path(dir, g))
		}
	}
}
