package obs

import (
	"fmt"
	"sort"

	"repro/internal/runcache"
	"repro/internal/stats"
)

// MergeSnapshots folds an ordered sequence of shard snapshots into one
// campaign snapshot. It is the coordinator half of the sharded-campaign
// telemetry contract: each worker produces a per-shard Snapshot whose
// deterministic section is a pure function of (spec, shard), and the
// coordinator merges them in shard order — per-condition sketches merge in
// input order, then the campaign-wide sketches are rebuilt from the merged
// conditions in sorted-condition order, exactly the way Aggregator.Snapshot
// builds them. Because both the shard snapshots and the merge order are
// independent of how many workers ran (or died and were re-run), the merged
// DeterministicJSON is byte-identical to a single-process campaign of the
// same spec.
//
// Wall-clock sections combine as aggregates: ElapsedS and WallS sum to
// total compute time (not makespan), cache stats add counter-wise, and the
// Health timeline — a live-process concern — is left nil.
func MergeSnapshots(snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("obs: merge: no snapshots")
	}
	out := &Snapshot{
		Schema:   SnapshotSchema,
		Campaign: make(map[string]*stats.MetricSketch),
		Engine:   make(map[string]*stats.MetricSketch),
	}

	merged := make(map[string]*CondSketches)
	var order []string
	var cacheSum runcache.Stats
	haveCache := false
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("obs: merge: snapshot %d is nil", i)
		}
		if s.Schema != SnapshotSchema {
			return nil, fmt.Errorf("obs: merge: snapshot %d has schema %q, want %q", i, s.Schema, SnapshotSchema)
		}
		out.Total += s.Total
		out.Done += s.Done
		out.Cached += s.Cached
		out.ElapsedS += s.ElapsedS
		if s.Interrupted {
			out.Interrupted = true
		}
		if s.Cache != nil {
			cacheSum = cacheSum.Add(*s.Cache)
			haveCache = true
		}
		for _, c := range s.Conditions {
			dst, ok := merged[c.Cond]
			if !ok {
				dst = &CondSketches{
					Cond:    c.Cond,
					Metrics: make(map[string]*stats.MetricSketch),
					Engine:  make(map[string]*stats.MetricSketch),
				}
				merged[c.Cond] = dst
				order = append(order, c.Cond)
			}
			dst.Runs += c.Runs
			dst.Cached += c.Cached
			dst.WallS += c.WallS
			mergeSketchGroup(dst.Metrics, c.Metrics)
			mergeSketchGroup(dst.Engine, c.Engine)
		}
	}
	if haveCache {
		out.Cache = &cacheSum
	}

	// Conditions sort by name in the output, and the campaign-wide sketches
	// are rebuilt by merging the per-condition sketches in that same sorted
	// order — the Aggregator.Snapshot discipline.
	sort.Strings(order)
	for _, name := range order {
		c := merged[name]
		out.Conditions = append(out.Conditions, *c)
		mergeSketchGroup(out.Campaign, c.Metrics)
		mergeSketchGroup(out.Engine, c.Engine)
	}
	return out, nil
}

// mergeSketchGroup folds src's sketches into dst in sorted-key order.
func mergeSketchGroup(dst, src map[string]*stats.MetricSketch) {
	keys := make([]string, 0, len(src))
	for k := range src {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ms, ok := dst[k]
		if !ok {
			ms = new(stats.MetricSketch)
			dst[k] = ms
		}
		ms.Merge(src[k])
	}
}
