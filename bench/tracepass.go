package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// cacheActivity sums run-cache counters over traced campaigns.
type cacheActivity struct {
	hits, misses, errors, discards uint64
}

func (a *cacheActivity) add(d runcache.Stats, discards int) {
	a.hits += d.Hits
	a.misses += d.Misses
	a.errors += d.Errors
	a.discards += uint64(discards)
}

// tracedCampaign executes a campaign by calling the public functions the
// program's own worker calls, in the same order, with a span around each:
// Init, Cells, then per shard AcquireClaim, per cell RunCached, Record and
// RunDone, then Snapshot, the shard runlog and WriteSnapshot (the shard's
// done marker), Release; finally Merge and RenderTelemetry. The worker's
// unexported steps (canonical runlog records and their file) are copied
// here and recorded as campaign.publish. The merged.det.json it produces
// must match the one campaign.Run produces, which is what shows this is
// the program's order. It also returns how many cache entries RunCached
// discarded (a fetched entry that failed to decode).
func tracedCampaign(tr *tracer, sp *campaign.Spec, cache *runcache.Cache, dir string, acc *simAcc) (*campaign.Result, int, error) {
	root := tr.begin("bench.op", 0)
	defer tr.end(root)
	s := tr.begin("campaign.Init", root)
	m, sp, err := campaign.Init(dir, sp, false)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = tr.begin("campaign.Cells", root)
	cells := sp.Cells()
	tr.end(s)
	discards := 0
	for i := 0; i < sp.ShardCount(); i++ {
		s = tr.begin("runcache.AcquireClaim", root)
		claim, ok, err := runcache.AcquireClaim(campaign.ClaimPath(dir, i), "bench", campaign.DefaultLease)
		tr.end(s)
		if err != nil {
			return nil, discards, err
		}
		if !ok {
			return nil, discards, fmt.Errorf("shard %d: claim held by another worker", i)
		}
		start, end := sp.ShardRange(i)
		agg := obs.NewAggregator()
		before := cache.Stats()
		var runlog bytes.Buffer
		agg.SweepStart(end - start)
		for _, cell := range cells[start:end] {
			runStart := time.Now()
			pre := cache.Stats()
			s = tr.begin("experiment.RunCached", root)
			res, hit := experiment.RunCached(cache, cell.RunConfig(sp))
			tr.end(s)
			// A discard re-reads as a miss, but the entry's bytes were read.
			if d := cache.Stats().Sub(pre); !hit && d.BytesRead > 0 {
				discards++
			}
			acc.add(res)
			s = tr.begin("metrics.Record", root)
			rec := res.Record(cell.Iter)
			tr.end(s)
			rec.Cached = hit
			s = tr.begin("obs.RunDone", root)
			agg.RunDone(obs.Update{
				Cond: rec.Cond, Seed: rec.Seed, Iteration: rec.Iteration,
				RunWall: time.Since(runStart), Record: &rec,
			})
			tr.end(s)
			s = tr.begin("campaign.publish", root)
			line, err := json.Marshal(canonicalRecord(rec))
			runlog.Write(line)
			runlog.WriteByte('\n')
			tr.end(s)
			if err != nil {
				return nil, discards, err
			}
		}
		agg.SweepDone(false, 0)
		s = tr.begin("obs.Snapshot", root)
		snap := agg.Snapshot()
		tr.end(s)
		snap.Health = nil
		delta := cache.Stats().Sub(before)
		snap.Cache = &delta
		s = tr.begin("campaign.publish", root)
		err = os.WriteFile(campaign.RunlogPath(dir, i), runlog.Bytes(), 0o644)
		tr.end(s)
		if err != nil {
			return nil, discards, err
		}
		s = tr.begin("obs.WriteSnapshot", root)
		err = obs.WriteSnapshot(campaign.SnapPath(dir, i), snap)
		tr.end(s)
		if err != nil {
			return nil, discards, err
		}
		s = tr.begin("runcache.Release", root)
		err = claim.Release()
		tr.end(s)
		if err != nil {
			return nil, discards, err
		}
	}
	s = tr.begin("campaign.Merge", root)
	res, err := campaign.Merge(dir, m, sp)
	tr.end(s)
	if err != nil {
		return nil, discards, err
	}
	s = tr.begin("figures.RenderTelemetry", root)
	figures.RenderTelemetry(io.Discard, sp.Name, res.Snapshot)
	tr.end(s)
	return res, discards, nil
}

// canonicalRecord scrubs the wall-clock fields from a record exactly as the
// campaign worker does before writing a shard runlog.
func canonicalRecord(r obs.Record) obs.Record {
	r.Cached = false
	r.Engine.WallSeconds = 0
	r.Engine.Speedup = 0
	r.Engine.EventsPerSecond = 0
	return r
}

// selfFracLayers are the layers whose share of a traced pass is reported.
var selfFracLayers = []string{"experiment", "metrics", "runcache", "obs", "campaign", "figures"}

// workloadLayers derives the per-layer metrics that describe the traced
// workload itself: engine counters per run, the distribution of the
// per-run span (Run or RunCached), cache counters, each layer's share of
// the traced wall time, and the cost and coverage of tracing.
func workloadLayers(tr *tracer, acc simAcc, runSpan string, untraced time.Duration, act cacheActivity) map[string]float64 {
	m := map[string]float64{}
	runs := float64(acc.runs)
	m["sim.events_per_run"] = float64(acc.events) / runs
	m["sim.scheduled_per_run"] = float64(acc.scheduled) / runs
	m["sim.cancelled_per_run"] = float64(acc.cancelled) / runs
	m["sim.timer_moves_per_run"] = float64(acc.moves) / runs
	m["sim.peak_pending"] = float64(acc.peak)
	m["sim.ns_per_event"] = float64(acc.wall.Nanoseconds()) / float64(acc.events)
	m["experiment.simulate_ms"] = ms(acc.wall.Nanoseconds()) / runs

	runMS := tr.named(runSpan)
	m["experiment.run_ms_p50"] = median(runMS)
	m["experiment.run_ms_tail"], m["experiment.run_tail_pct"] = tail(runMS)
	m["experiment.run_spans"] = float64(len(runMS))

	m["runcache.hits"] = float64(act.hits)
	m["runcache.misses"] = float64(act.misses)
	m["runcache.errors"] = float64(act.errors)
	m["runcache.discards"] = float64(act.discards)

	var traced int64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			traced += s.dur()
		}
	}
	self := layerSelf(tr.spans)
	for _, layer := range selfFracLayers {
		m[layer+".self_frac"] = float64(self[layer]) / float64(traced)
	}
	var attributed int64
	for layer, ns := range self {
		if layer != "bench" {
			attributed += ns
		}
	}
	m["campaign.overhead_frac"] = 0 // no campaign around the run workloads' Run spans
	if runSpan == "experiment.RunCached" {
		m["campaign.overhead_frac"] = 1 - sum(runMS)*1e6/float64(traced)
	}
	m["bench.trace_overhead_frac"] = float64(traced-untraced.Nanoseconds()) / float64(untraced.Nanoseconds())
	m["bench.unattributed_frac"] = 1 - float64(attributed)/float64(untraced.Nanoseconds())
	return m
}
