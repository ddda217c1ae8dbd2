package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// reportRunLog renders a JSONL run log (gssim/gsbench -runlog, or a
// gscampaign merged.runs.jsonl) as the report a snapshot of the same runs
// renders to — partial (interrupted) logs included.
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

// reportTelemetry renders a persisted telemetry snapshot (gsbench
// -telemetry-out, or a campaign's merged.snap): n, mean ± 95% CI, min and
// max for every paper metric, computed from the sketches alone — no runlog
// needed.
func reportTelemetry(path string) error {
	snap, err := obs.ReadSnapshot(path)
	if err != nil {
		return err
	}
	figures.RenderTelemetry(os.Stdout, path, snap)
	return nil
}

// reportCampaign renders a gscampaign directory: shard completion status
// from the manifest, with one line per unfinished shard naming its claim
// owner (and how long ago an expired lease ran out) or saying it is
// missing; then the merged telemetry tables if the campaign has been
// merged (every table RenderTelemetry prints for a live snapshot). It
// reads claims without touching them.
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
			if d {
				continue
			}
			missing = append(missing, i)
			mark := "missing"
			if info, ok, err := runcache.ReadClaim(campaign.ClaimPath(dir, i)); err == nil && ok {
				mark = "claimed by " + info.Owner
				if info.Expired(time.Now()) {
					mark += fmt.Sprintf(" (lease expired %.0fs ago)", time.Since(time.Unix(0, info.Expires)).Seconds())
				}
			}
			fmt.Printf("  shard %04d  %s\n", i, mark)
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
