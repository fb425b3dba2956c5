package webfountain

import (
	"errors"
	"strings"
	"testing"
)

// Zero and negative tuning fields select defaults rather than producing
// degenerate platforms (0 ingest workers would deadlock ingestion, 0
// shards would panic the store).
func TestNewPlatformClampsNonsenseTuning(t *testing.T) {
	p := NewPlatform(PlatformConfig{Shards: -3, IngestWorkers: -1, IndexShards: 0})
	if _, err := p.Ingest([]Document{{ID: "a", Text: "The NR70 takes excellent pictures."}}); err != nil {
		t.Fatalf("ingest on clamped platform: %v", err)
	}
	if p.NumEntities() != 1 {
		t.Errorf("NumEntities = %d, want 1", p.NumEntities())
	}
	if got := p.SearchAll("excellent"); len(got) != 1 {
		t.Errorf("SearchAll = %v", got)
	}
}

func TestValidateRejectsNonsenseConfigs(t *testing.T) {
	cases := []struct {
		name  string
		cfg   PlatformConfig
		field string
	}{
		{"shards over max", PlatformConfig{Shards: maxShards + 1}, "Shards"},
		{"index shards over max", PlatformConfig{IndexShards: maxShards + 1}, "IndexShards"},
		{"ingest workers over max", PlatformConfig{IngestWorkers: maxShards + 1}, "IngestWorkers"},
		{"negative sync cadence", PlatformConfig{SyncEvery: -1}, "SyncEvery"},
		{"negative compaction cadence", PlatformConfig{CompactEvery: -2}, "CompactEvery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			var cerr *ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if cerr.Field != tc.field {
				t.Errorf("Field = %q, want %q", cerr.Field, tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("Error() = %q, should name the field", err.Error())
			}
		})
	}

	if err := (PlatformConfig{Shards: -1, SyncEvery: 0}).Validate(); err != nil {
		t.Errorf("clampable config should validate, got %v", err)
	}
}

func TestOpenPlatformValidates(t *testing.T) {
	var cerr *ConfigError
	if _, err := OpenPlatform(PlatformConfig{}); !errors.As(err, &cerr) || cerr.Field != "DataDir" {
		t.Errorf("empty DataDir: err = %v", err)
	}
	if _, err := OpenPlatform(PlatformConfig{DataDir: t.TempDir(), SyncEvery: -1}); !errors.As(err, &cerr) || cerr.Field != "SyncEvery" {
		t.Errorf("negative SyncEvery: err = %v", err)
	}

	// A clampable config opens fine and is durable end to end.
	dir := t.TempDir()
	p, err := OpenPlatform(PlatformConfig{DataDir: dir, Shards: -1, IngestWorkers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest([]Document{{ID: "a", Text: "ok"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
