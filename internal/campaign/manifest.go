package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/runcache"
)

// ManifestSchema versions the campaign directory layout.
const ManifestSchema = "gs-campaign-v1"

// Manifest is the campaign directory's root document: the campaign's
// identity plus the canonical spec text every worker re-expands. It is
// written once at initialisation and never modified; all mutable state
// lives in the per-shard files.
type Manifest struct {
	Schema string `json:"schema"`
	// Name and ID identify the campaign; ID is the SHA-256 of Spec.
	Name string `json:"name"`
	ID   string `json:"id"`
	// Spec is the canonical campaign spec text (see Spec.Canonical).
	Spec string `json:"spec"`
	// Total, Shards and ShardSize record the expansion's shape, purely as a
	// cross-check: readers recompute them from Spec and refuse a manifest
	// that disagrees (a hand-edited spec would silently re-shard otherwise).
	Total     int `json:"total"`
	Shards    int `json:"shards"`
	ShardSize int `json:"shard_size"`
}

// NewManifest builds the manifest for a parsed spec.
func NewManifest(sp *Spec) *Manifest {
	return &Manifest{
		Schema:    ManifestSchema,
		Name:      sp.Name,
		ID:        sp.ID(),
		Spec:      sp.Canonical(),
		Total:     sp.Total(),
		Shards:    sp.ShardCount(),
		ShardSize: sp.ShardSize(),
	}
}

// Campaign directory layout. The snapshot file doubles as the shard's done
// marker: it is renamed into place only after the shard's runlog is, so its
// presence implies the whole shard published. The manifest is what makes a
// directory a campaign directory.
func ManifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// ClaimPath is shard i's lease file.
func ClaimPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.claim", i))
}

// RunlogPath is shard i's structured run log (canonical records, one JSON
// line per run, in cell order).
func RunlogPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.runs.jsonl", i))
}

// SnapPath is shard i's telemetry snapshot (obs.WriteSnapshot's binary
// layout) — and its done marker (see ShardDone). A directory written
// before snapshots were binary holds shard-NNNN.snap.json files instead:
// this name ignores them, so a resume re-publishes those shards from the
// run cache.
func SnapPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.snap", i))
}

// Merged output paths.
func MergedSnapPath(dir string) string   { return filepath.Join(dir, "merged.snap") }
func MergedDetPath(dir string) string    { return filepath.Join(dir, "merged.det.json") }
func MergedRunlogPath(dir string) string { return filepath.Join(dir, "merged.runs.jsonl") }

// WriteManifest persists the manifest atomically (temp + rename).
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: marshal manifest: %w", err)
	}
	return atomicWrite(ManifestPath(dir), append(data, '\n'))
}

// ReadManifest loads and cross-checks the manifest: the embedded spec must
// re-parse, and its identity and expansion shape must match what the
// manifest claims.
func ReadManifest(dir string) (*Manifest, *Spec, error) {
	data, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("campaign: decode manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, nil, fmt.Errorf("campaign: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	sp, err := ParseSpec(strings.NewReader(m.Spec))
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: manifest spec: %w", err)
	}
	if got := sp.ID(); got != m.ID {
		return nil, nil, fmt.Errorf("campaign: manifest id %s does not match its spec (%s)", m.ID, got)
	}
	if sp.Total() != m.Total || sp.ShardCount() != m.Shards || sp.ShardSize() != m.ShardSize {
		return nil, nil, fmt.Errorf("campaign: manifest shape %d/%d/%d disagrees with spec %d/%d/%d",
			m.Total, m.Shards, m.ShardSize, sp.Total(), sp.ShardCount(), sp.ShardSize())
	}
	return &m, sp, nil
}

// ShardDone reports whether shard i has published: its snapshot exists and
// opens with the current layout's magic. A shard file from an older
// layout is not done, so a resume re-publishes it from the run cache
// instead of failing to merge it.
func ShardDone(dir string, i int) bool {
	f, err := os.Open(SnapPath(dir, i))
	if err != nil {
		return false
	}
	defer f.Close()
	head := make([]byte, 16) // longer than the snapshot magic
	n, _ := io.ReadFull(f, head)
	return obs.IsSnapshot(head[:n])
}

// Status scans the campaign directory and returns each shard's completion
// plus the done count.
func Status(dir string, m *Manifest) (done []bool, n int) {
	done = make([]bool, m.Shards)
	for i := range done {
		if ShardDone(dir, i) {
			done[i] = true
			n++
		}
	}
	return done, n
}

// atomicWrite publishes data at path with runcache.WriteFileAtomic.
func atomicWrite(path string, data []byte) error {
	if err := runcache.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}
