package main

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/figures"
	"repro/internal/obs"
)

// reportRunLog renders a JSONL run log (gssim/gsbench -runlog, or a
// gscampaign merged.runs.jsonl) as the report -telemetry prints for the
// live snapshot of the same runs — partial (interrupted) logs included.
func reportRunLog(path string) error {
	snap, err := foldRunLog(path)
	if err != nil {
		return err
	}
	figures.RenderTelemetry(os.Stdout, path, snap)
	return nil
}

// foldRunLog replays a run log's records through a fresh obs.Aggregator,
// the sink that folded them live, so the sketches come out the same.
func foldRunLog(path string) (*obs.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	agg := obs.NewAggregator()
	agg.SweepStart(len(recs))
	for i := range recs {
		agg.RunDone(obs.Update{Record: &recs[i]})
	}
	agg.SweepDone(false, 0)
	snap := agg.Snapshot()
	snap.ElapsedS = 0 // the fold's own wall time, not the campaign's
	return snap, nil
}

// reportTelemetry renders a persisted telemetry snapshot (gssim/gsbench
// -telemetry-out, or a saved /snapshot body): quantiles-with-CI tables for
// every paper metric, computed from the sketches alone — no runlog needed.
func reportTelemetry(path string) error {
	snap, err := obs.ReadSnapshot(path)
	if err != nil {
		return err
	}
	figures.RenderTelemetry(os.Stdout, path, snap)
	return nil
}

// reportCampaign renders a gscampaign directory: shard completion status
// from the manifest, then the merged telemetry tables if the campaign has
// been merged (every table RenderTelemetry prints for a live snapshot).
func reportCampaign(dir string) error {
	m, _, err := campaign.ReadManifest(dir)
	if err != nil {
		return err
	}
	done, n := campaign.Status(dir, m)
	fmt.Printf("campaign %s (%s): %d runs in %d shards, %d done\n", m.Name, m.ID, m.Total, m.Shards, n)
	if n < m.Shards {
		missing := make([]int, 0, m.Shards-n)
		for i, d := range done {
			if !d {
				missing = append(missing, i)
			}
		}
		fmt.Printf("missing shards: %v (resume with gscampaign -dir %s -resume)\n", missing, dir)
		return nil
	}
	snap, err := obs.ReadSnapshot(campaign.MergedSnapPath(dir))
	if err != nil {
		return fmt.Errorf("campaign complete but not merged (run gscampaign -dir %s -resume): %w", dir, err)
	}
	fmt.Println()
	figures.RenderTelemetry(os.Stdout, dir, snap)
	return nil
}
