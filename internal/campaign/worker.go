package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// Worker default knobs.
const (
	DefaultLease = time.Minute
	DefaultPoll  = 200 * time.Millisecond
)

// Worker executes campaign shards: it claims a shard's lease file, runs the
// shard's cells sequentially through the shared run cache, publishes the
// shard's runlog and telemetry snapshot atomically, releases the claim, and
// moves on until no unfinished shard remains. Several Workers — in-process
// or in separate OS processes — cooperate safely over one campaign
// directory; see the package comment for the crash-recovery story.
type Worker struct {
	// Dir is the campaign directory; Manifest/Spec its parsed root state.
	Dir      string
	Manifest *Manifest
	Spec     *Spec
	// Cache is the shared run cache (nil runs uncached, which still works
	// but makes shard re-execution after a crash start from scratch).
	Cache *runcache.Cache
	// Owner names this worker in claim files; must be unique per worker.
	Owner string
	// Lease is the claim TTL; the worker renews at half-life while a shard
	// executes. Poll is the idle wait between scans when every unfinished
	// shard is claimed by someone else.
	Lease time.Duration
	Poll  time.Duration
	// IgnoreClaims skips claim acquisition entirely, so this worker races
	// everyone on every shard — a test hook for exercising the cache and
	// publish paths under deliberate cross-process contention.
	IgnoreClaims bool
	// Log, when non-nil, receives one line per shard event.
	Log io.Writer
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, format+"\n", args...)
	}
}

// Run executes shards until none are missing, returning how many this
// worker published. It returns early (with the context's error) when ctx is
// cancelled; the in-flight shard is abandoned unpublished and its lease
// left to expire, exactly like a crash.
func (w *Worker) Run(ctx context.Context) (executed int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lease, poll := w.Lease, w.Poll
	if lease <= 0 {
		lease = DefaultLease
	}
	if poll <= 0 {
		poll = DefaultPoll
	}
	cells := w.Spec.Cells()
	n := w.Spec.ShardCount()
	// Start the scan at a per-owner offset so a fleet of workers spreads
	// over the shards instead of stampeding shard 0.
	offset := 0
	for _, c := range w.Owner {
		offset = (offset*31 + int(c)) % max(n, 1)
	}
	for {
		missing := 0
		for s := 0; s < n; s++ {
			if err := ctx.Err(); err != nil {
				return executed, err
			}
			i := (s + offset) % n
			if ShardDone(w.Dir, i) {
				continue
			}
			missing++
			var claim *runcache.Claim
			if !w.IgnoreClaims {
				c, ok, err := runcache.AcquireClaim(ClaimPath(w.Dir, i), w.Owner, lease)
				if err != nil {
					return executed, err
				}
				if !ok {
					continue // validly held by a live worker
				}
				claim = c
				// The previous holder may have published between our scan
				// and the steal; re-check before re-executing.
				if ShardDone(w.Dir, i) {
					_ = claim.Release()
					missing--
					continue
				}
			}
			start, end := w.Spec.ShardRange(i)
			w.logf("worker %s: shard %d (%d cells)", w.Owner, i, end-start)
			err := w.runShard(ctx, i, cells[start:end], claim, lease)
			if claim != nil {
				_ = claim.Release()
			}
			if err != nil {
				return executed, err
			}
			executed++
			missing--
		}
		if missing == 0 {
			// Every shard either done or (transiently) claimed; rescan once
			// more to distinguish. All done → exit.
			if _, done := Status(w.Dir, w.Manifest); done == n {
				return executed, nil
			}
		}
		select {
		case <-ctx.Done():
			return executed, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// runShard executes one shard's cells in order and publishes its outputs:
// first the runlog, then the snapshot (the done marker), both via
// temp+rename so a crash mid-publish leaves the shard cleanly unfinished.
// The claim is renewed between runs once half its lease has passed; a
// failed renewal stops the shard, which then publishes nothing.
func (w *Worker) runShard(ctx context.Context, shard int, cells []Cell, claim *runcache.Claim, lease time.Duration) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make([]experiment.Job, len(cells))
	for i, cell := range cells {
		jobs[i] = experiment.Job{Cfg: cell.RunConfig(w.Spec), Iter: cell.Iter}
	}
	agg := obs.NewAggregator()
	var runlog shardLog
	var before runcache.Stats
	if w.Cache != nil {
		before = w.Cache.Stats()
	}
	var renewErr error
	renewAt := time.Now().Add(lease / 2)
	const workers = 1 // a shard's runs execute in cell order
	done := experiment.Execute(ctx, jobs, workers, w.Cache, experiment.Sinks{Progress: obs.MultiProgress(agg, &runlog)},
		func(int, *experiment.RunResult, bool) {
			if claim == nil || !time.Now().After(renewAt) {
				return
			}
			if renewErr = claim.Renew(lease); renewErr != nil {
				cancel()
			}
			renewAt = time.Now().Add(lease / 2)
		})
	switch {
	case renewErr != nil:
		return renewErr
	case runlog.err != nil:
		return runlog.err
	case done < len(jobs):
		return ctx.Err()
	}
	snap := agg.Snapshot()
	// The health point is a live-process concern and the cache stats are
	// scoped to this shard's slice of this process's counters.
	snap.Health = nil
	if w.Cache != nil {
		delta := w.Cache.Stats().Sub(before)
		snap.Cache = &delta
	}
	if err := atomicWrite(RunlogPath(w.Dir, shard), runlog.buf.Bytes()); err != nil {
		return err
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: marshal snapshot: %w", err)
	}
	return atomicWrite(SnapPath(w.Dir, shard), append(data, '\n'))
}

// shardLog is the Progress sink that buffers a shard's runlog: one
// canonical record per line, in completion order (cell order, with one
// worker). The first marshal error is kept for runShard to return.
type shardLog struct {
	buf bytes.Buffer
	err error
}

func (l *shardLog) SweepStart(int)                {}
func (l *shardLog) SweepDone(bool, time.Duration) {}

func (l *shardLog) RunDone(u obs.Update) {
	line, err := json.Marshal(canonicalRecord(*u.Record))
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("campaign: marshal record: %w", err)
		}
		return
	}
	l.buf.Write(line)
	l.buf.WriteByte('\n')
}

// canonicalRecord scrubs the wall-clock execution fields from a record so
// shard runlogs are a pure function of (spec, shard): Cached depends on
// which process ran first, and the engine wall fields on host load, so both
// are zeroed. Everything else — metrics, counters, seeds — is deterministic
// and survives verbatim.
func canonicalRecord(r obs.Record) obs.Record {
	r.Cached = false
	r.Engine.WallSeconds = 0
	r.Engine.Speedup = 0
	r.Engine.EventsPerSecond = 0
	return r
}
