package campaign

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/runcache"
)

// Options configures a coordinated campaign run.
type Options struct {
	// Dir is the campaign directory (created if missing).
	Dir string
	// Cache is the shared run cache all workers execute through.
	Cache *runcache.Cache
	// Workers is the number of worker OS processes to spawn via Spawn; with
	// zero workers (or a nil Spawn) the coordinator executes every shard
	// in-process. Every worker, in-process or spawned, runs its shard's
	// cells on every core, so extra processes buy crash isolation and
	// multi-host runs rather than speed on one machine.
	Workers int
	// Spawn builds the command for one worker process (the gscampaign
	// binary re-executing itself in -worker mode). The coordinator starts
	// and waits for them; a worker that exits non-zero (or is killed) is
	// logged, not fatal — the coordinator's in-process pass finishes
	// whatever the fleet left behind.
	Spawn func(ctx context.Context, worker int) *exec.Cmd
	// Resume allows initialising over an existing campaign directory: the
	// manifest is re-read, the cell list re-expanded, and only missing
	// shards execute. Without Resume, an already-initialised directory is
	// an error (refusing to silently append to unknown state).
	Resume bool
	// Lease and Poll forward to the in-process worker (see Worker).
	Lease time.Duration
	Poll  time.Duration
	// IgnoreClaims forwards to the in-process worker (test hook).
	IgnoreClaims bool
	// Log, when non-nil, receives coordinator progress lines.
	Log io.Writer
}

// Result is a completed campaign's outputs.
type Result struct {
	Manifest *Manifest
	Spec     *Spec
	// Snapshot is the merged campaign telemetry; Det its deterministic
	// serialisation (byte-identical across worker counts and crashes).
	Snapshot *obs.Snapshot
	Det      []byte
	// Paths of the merged artefacts written into the campaign directory.
	SnapPath, DetPath, RunlogPath string
	// ShardsRun counts shards executed by this process's in-process pass.
	ShardsRun int
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// Init prepares the campaign directory for spec: creates it, writes the
// manifest, or — on resume — verifies the existing manifest matches. A nil
// spec resumes whatever the directory already holds.
func Init(dir string, sp *Spec, resume bool) (*Manifest, *Spec, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("campaign: empty campaign directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("campaign: %w", err)
	}
	if _, err := os.Stat(ManifestPath(dir)); err == nil {
		m, msp, err := ReadManifest(dir)
		if err != nil {
			return nil, nil, err
		}
		if sp != nil && sp.ID() != m.ID {
			return nil, nil, fmt.Errorf("campaign: directory %s holds campaign %s (%s), not %s (%s)",
				dir, m.Name, m.ID, sp.Name, sp.ID())
		}
		if !resume {
			return nil, nil, fmt.Errorf("campaign: directory %s already initialised (campaign %s); use -resume", dir, m.ID)
		}
		return m, msp, nil
	}
	if sp == nil {
		return nil, nil, fmt.Errorf("campaign: directory %s has no manifest to resume", dir)
	}
	// A directory with shard files but no manifest is partial unknown
	// state; refuse rather than adopt it.
	if stray, _ := filepath.Glob(filepath.Join(dir, "shard-*")); len(stray) > 0 {
		return nil, nil, fmt.Errorf("campaign: directory %s has %d shard files but no manifest", dir, len(stray))
	}
	m := NewManifest(sp)
	if err := WriteManifest(dir, m); err != nil {
		return nil, nil, err
	}
	return m, sp, nil
}

// Run coordinates a campaign end to end: initialise (or resume) the
// directory, spawn the worker fleet, finish any remaining shards
// in-process, and merge the per-shard telemetry in shard order. A nil spec
// resumes the directory's existing campaign.
func Run(ctx context.Context, sp *Spec, o Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, sp, err := Init(o.Dir, sp, o.Resume)
	if err != nil {
		return nil, err
	}
	_, done := Status(o.Dir, m)
	logf(o.Log, "campaign %s (%s): %d runs in %d shards, %d shards already done",
		m.Name, m.ID, m.Total, m.Shards, done)

	// The worker fleet. Child failures are logged, never fatal: shards they
	// abandoned are re-executed by whoever scans next (including the
	// in-process pass below), and shards they published stay published.
	if o.Workers > 0 && o.Spawn != nil {
		cmds := make([]*exec.Cmd, 0, o.Workers)
		for i := 0; i < o.Workers; i++ {
			cmd := o.Spawn(ctx, i)
			if cmd == nil {
				continue
			}
			if err := cmd.Start(); err != nil {
				logf(o.Log, "worker %d failed to start: %v", i, err)
				continue
			}
			cmds = append(cmds, cmd)
		}
		for i, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				logf(o.Log, "worker %d exited: %v", i, err)
			}
		}
	}

	// In-process pass: with Workers == 0 this is the whole execution;
	// otherwise it sweeps up anything the fleet left (crashed workers'
	// shards, or expired leases nobody re-claimed).
	w := &Worker{
		Dir: o.Dir, Manifest: m, Spec: sp, Cache: o.Cache,
		Owner: fmt.Sprintf("coord-%d", os.Getpid()),
		Lease: o.Lease, Poll: o.Poll, IgnoreClaims: o.IgnoreClaims, Log: o.Log,
	}
	ran, err := w.Run(ctx)
	if err != nil {
		return nil, err
	}

	res, err := Merge(o.Dir, m, sp)
	if err != nil {
		return nil, err
	}
	res.ShardsRun = ran
	return res, nil
}

// Merge folds every shard's published outputs into the campaign artefacts:
// the merged telemetry snapshot (shard snapshots merged in shard order —
// see obs.MergeSnapshots for why this is byte-deterministic), its
// deterministic serialisation, and the concatenated runlog in shard order.
// All shards must be done.
func Merge(dir string, m *Manifest, sp *Spec) (*Result, error) {
	if _, done := Status(dir, m); done != m.Shards {
		return nil, fmt.Errorf("campaign: %d of %d shards done; cannot merge", done, m.Shards)
	}
	snaps := make([]*obs.Snapshot, m.Shards)
	var runlog bytes.Buffer
	for i := 0; i < m.Shards; i++ {
		s, err := obs.ReadSnapshot(SnapPath(dir, i))
		if err != nil {
			return nil, fmt.Errorf("campaign: shard %d: %w", i, err)
		}
		snaps[i] = s
		data, err := os.ReadFile(RunlogPath(dir, i))
		if err != nil {
			return nil, fmt.Errorf("campaign: shard %d: %w", i, err)
		}
		runlog.Write(data)
	}
	merged, err := obs.MergeSnapshots(snaps)
	if err != nil {
		return nil, err
	}
	det, err := merged.DeterministicJSON()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Manifest: m, Spec: sp, Snapshot: merged, Det: det,
		SnapPath:   MergedSnapPath(dir),
		DetPath:    MergedDetPath(dir),
		RunlogPath: MergedRunlogPath(dir),
	}
	if err := obs.WriteSnapshot(res.SnapPath, merged); err != nil {
		return nil, err
	}
	if err := atomicWrite(res.DetPath, append(append([]byte(nil), det...), '\n')); err != nil {
		return nil, err
	}
	if err := atomicWrite(res.RunlogPath, runlog.Bytes()); err != nil {
		return nil, err
	}
	return res, nil
}
