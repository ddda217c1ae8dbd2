package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
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
// shard's cells on every core through the shared run cache, publishes the
// shard's runlog and telemetry snapshot atomically, releases the claim, and
// moves on until no unfinished shard remains. A Worker takes one shard at
// a time; Workers in separate processes (each `gscampaign -dir D -resume`)
// cooperate safely over one campaign directory, which is how a campaign
// gets crash isolation or spreads over hosts. See the package comment for
// the crash-recovery story.
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
	// Start the scan at a per-owner offset so processes sharing the
	// directory spread over the shards instead of stampeding shard 0.
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
			claim, ok, err := runcache.AcquireClaim(ClaimPath(w.Dir, i), w.Owner, lease)
			if err != nil {
				return executed, err
			}
			if !ok {
				continue // validly held by a live worker
			}
			// The previous holder may have published between our scan and
			// the steal; re-check before re-executing.
			if ShardDone(w.Dir, i) {
				_ = claim.Release()
				missing--
				continue
			}
			start, end := w.Spec.ShardRange(i)
			w.logf("worker %s: shard %d (%d cells)", w.Owner, i, end-start)
			err = w.runShard(ctx, i, cells[start:end], claim, lease)
			_ = claim.Release()
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

// runShard executes one shard's cells, experiment.DefaultWorkers() at a
// time, and publishes its outputs: first the runlog, then the snapshot
// (the done marker), both via temp+rename so a crash mid-publish leaves
// the shard cleanly unfinished. Both outputs are independent of the order
// runs complete in: the runlog files each record by its job index and the
// aggregator folds each condition in iteration order. The claim is renewed
// between runs once half its lease has passed; a failed renewal stops the
// shard, which then publishes nothing.
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
	var (
		renewMu  sync.Mutex
		renewErr error
		renewAt  = time.Now().Add(lease / 2)
	)
	done := experiment.Execute(ctx, jobs, experiment.DefaultWorkers(), w.Cache, experiment.Sinks{Progress: obs.MultiProgress(agg, &runlog)},
		func(int, *experiment.RunResult, bool) {
			renewMu.Lock()
			defer renewMu.Unlock()
			if renewErr != nil || !time.Now().After(renewAt) {
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
	if err := atomicWrite(RunlogPath(w.Dir, shard), runlog.bytes()); err != nil {
		return err
	}
	return obs.WriteSnapshot(SnapPath(w.Dir, shard), snap)
}

// shardLog is the Progress sink that collects a shard's runlog: one
// canonical record per job, filed at the job's index so the runlog lists
// the shard's cells in order however their runs complete. The first
// marshal error is kept for runShard to return.
type shardLog struct {
	mu    sync.Mutex
	lines [][]byte
	err   error
}

func (l *shardLog) SweepStart(total int)          { l.lines = make([][]byte, total) }
func (l *shardLog) SweepDone(bool, time.Duration) {}

func (l *shardLog) RunDone(u obs.Update) {
	line, err := json.Marshal(canonicalRecord(*u.Record))
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("campaign: marshal record: %w", err)
		}
		return
	}
	l.lines[u.Index] = line
}

// bytes is the runlog file: the records in job order, one per line.
func (l *shardLog) bytes() []byte {
	n := 0
	for _, line := range l.lines {
		n += len(line) + 1
	}
	b := make([]byte, 0, n)
	for _, line := range l.lines {
		b = append(append(b, line...), '\n')
	}
	return b
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
