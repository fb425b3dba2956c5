package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var testFiles = Family{Prefix: "ckpt", Suffix: ".ck", Base: 16, Width: 4}

func publish(t *testing.T, dir string, gen uint64, body string) {
	t.Helper()
	err := testFiles.Publish(dir, gen, nil, func(w io.Writer) error {
		_, err := io.WriteString(w, body)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestFamilyNamesAndGens: generations print zero-padded in the family's
// base, parse back, sort numerically, and foreign names are ignored.
func TestFamilyNamesAndGens(t *testing.T) {
	dir := t.TempDir()
	if got, want := testFiles.Path(dir, 0x1f), filepath.Join(dir, "ckpt-001f.ck"); got != want {
		t.Fatalf("Path = %q, want %q", got, want)
	}
	for _, gen := range []uint64{0x1f, 2, 0x12345} {
		publish(t, dir, gen, "x")
	}
	for _, foreign := range []string{"ckpt-zz.ck", "ckpt-0003.ck.corrupt", "other-0004.ck"} {
		if err := os.WriteFile(filepath.Join(dir, foreign), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := testFiles.Gens(dir), []uint64{2, 0x1f, 0x12345}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Gens = %x, want %x", got, want)
	}
}

// TestPublishFailureLeavesNothing: a failed write publishes no file and
// leaves no temp file behind.
func TestPublishFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	err := testFiles.Publish(dir, 1, nil, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) || errors.Is(err, ErrUnsynced) {
		t.Fatalf("Publish error = %v, want the write error", err)
	}
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("failed publish left %v behind", got)
	}
}

// TestLoadFallsBackAndCleans: Load returns the newest generation that
// verifies, quarantines the newer ones that do not, removes the
// family's stray temp files, and treats a missing directory as empty.
func TestLoadFallsBackAndCleans(t *testing.T) {
	dir := t.TempDir()
	publish(t, dir, 1, "good")
	publish(t, dir, 2, "bad")
	publish(t, dir, 3, "bad")
	if err := os.WriteFile(filepath.Join(dir, "ckpt-123.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	verify := func(data []byte) error {
		if string(data) != "good" {
			return errors.New("checksum mismatch")
		}
		return nil
	}
	gen, ok, quarantined, err := testFiles.Load(dir, verify)
	if err != nil || !ok || gen != 1 || quarantined != 2 {
		t.Fatalf("Load = gen %d ok %v quarantined %d err %v, want gen 1 with 2 quarantined", gen, ok, quarantined, err)
	}
	want := []string{"ckpt-0001.ck", "ckpt-0002.ck.corrupt", "ckpt-0003.ck.corrupt"}
	if got := names(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("directory after Load = %v, want %v", got, want)
	}
	if _, ok, _, err := testFiles.Load(filepath.Join(dir, "absent"), verify); ok || err != nil {
		t.Fatalf("Load of a missing directory: ok %v err %v", ok, err)
	}
}

// TestPruneKeepsNewestAtOrBelow: Prune keeps the N newest generations at
// or below the given one and never touches a newer generation.
func TestPruneKeepsNewestAtOrBelow(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 5; gen++ {
		publish(t, dir, gen, "x")
	}
	if got, want := testFiles.Prune(dir, 4, 2), []uint64{4, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Prune kept %v, want %v", got, want)
	}
	if got, want := testFiles.Gens(dir), []uint64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("generations after Prune = %v, want %v", got, want)
	}
	testFiles.RemoveBelow(dir, 5)
	if got, want := testFiles.Gens(dir), []uint64{5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("generations after RemoveBelow = %v, want %v", got, want)
	}
}
