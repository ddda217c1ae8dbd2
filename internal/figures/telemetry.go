package figures

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
)

// fmtQ renders a sketch quantile, "-" when the metric has no samples.
func fmtQ(ms *stats.MetricSketch, q float64) string {
	if ms == nil || ms.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", ms.Quantile(q))
}

// fmtMeanCI renders mean ± ci95, "-" when the metric has no samples.
func fmtMeanCI(ms *stats.MetricSketch) string {
	if ms == nil || ms.N() == 0 {
		return "-"
	}
	return report.MeanCI(ms.Mean(), ms.CI95())
}

// fmtMean renders the exact sketch mean to prec decimals, "-" when the
// metric has no samples.
func fmtMean(ms *stats.MetricSketch, prec int) string {
	if ms == nil || ms.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, ms.Mean())
}

// fmtTotal renders a per-run counter's total over the runs, n × the exact
// sketch mean rounded to prec decimals.
func fmtTotal(ms *stats.MetricSketch, prec int) string {
	if ms == nil || ms.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, float64(ms.N())*ms.Mean())
}

// RenderTelemetry renders a telemetry snapshot as the standard report:
// a header line, the campaign-wide quantiles-with-CI table over every
// recorded metric, the per-condition table over the paper's headline
// metrics, and — only when some condition has them — per-condition
// impairment totals and flow-population tables. It is shared by gsreport
// -telemetry/-runlog/-campaign and gscampaign, and works on any snapshot —
// live, persisted, merged from shards or folded from a run log — because
// everything it prints comes from the sketches alone.
func RenderTelemetry(w io.Writer, label string, snap *obs.Snapshot) {
	state := "complete"
	if snap.Interrupted {
		state = "interrupted"
	} else if snap.Done < snap.Total {
		state = "in progress"
	}
	fmt.Fprintf(w, "telemetry snapshot: %s (%s, %d/%d runs", label, state, snap.Done, snap.Total)
	if snap.Cached > 0 {
		fmt.Fprintf(w, ", %d cached", snap.Cached)
	}
	fmt.Fprintf(w, ", %d conditions", len(snap.Conditions))
	if snap.ElapsedS > 0 {
		fmt.Fprintf(w, ", %.1fs elapsed", snap.ElapsedS)
	}
	fmt.Fprintln(w, ")")
	if c := snap.Cache; c != nil && c.Lookups() > 0 {
		fmt.Fprintf(w, "run cache: %s\n", c)
	}
	fmt.Fprintln(w)

	// Campaign-wide table: one row per paper metric, quantiles + exact CI.
	tb := report.NewTable("campaign metrics (across all conditions)",
		"metric", "n", "mean ± ci95", "p10", "p50", "p90", "min", "max")
	names := make([]string, 0, len(snap.Campaign))
	for name := range snap.Campaign {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ms := snap.Campaign[name]
		if ms == nil || ms.N() == 0 {
			continue
		}
		tb.AddRow(name, fmt.Sprintf("%d", ms.N()),
			fmtMeanCI(ms),
			fmtQ(ms, 0.10), fmtQ(ms, 0.50), fmtQ(ms, 0.90),
			fmt.Sprintf("%.2f", ms.Min()), fmt.Sprintf("%.2f", ms.Max()))
	}
	fmt.Fprintln(w, tb)

	// Per-condition table over the paper's headline metrics.
	ct := report.NewTable("per-condition stream metrics",
		"condition", "runs", "game Mb/s ± ci", "game p50", "tcp Mb/s ± ci", "fairness ± ci",
		"rtt ms ± ci", "fps ± ci", "loss % p90")
	it := report.NewTable("per-condition impairments (totals across impaired runs)",
		"condition", "runs", "loss drops", "flap drops", "flaps", "down s")
	pt := report.NewTable("per-condition flow populations (means across runs; starved is a total)",
		"condition", "runs", "jain", "tput p50", "rtt infl", "starved")
	for _, c := range snap.Conditions {
		m := c.Metrics
		if game := m["game_mbps"]; game != nil {
			ct.AddRow(c.Cond, fmt.Sprintf("%d", c.Runs),
				fmtMeanCI(game), fmtQ(game, 0.50), fmtMeanCI(m["tcp_mbps"]), fmtMeanCI(m["fairness"]),
				fmtMeanCI(m["rtt_ms"]), fmtMeanCI(m["fps"]), fmtQ(m["loss_pct"], 0.90))
		}
		if drops := m["loss_drops"]; drops != nil {
			it.AddRow(c.Cond, fmt.Sprintf("%d", drops.N()), fmtTotal(drops, 0),
				fmtTotal(m["flap_drops"], 0), fmtTotal(m["flaps"], 0), fmtTotal(m["down_s"], 1))
		}
		if starved := m["starved"]; starved != nil {
			pt.AddRow(c.Cond, fmt.Sprintf("%d", starved.N()), fmtMean(m["jain"], 3),
				fmtMean(m["tput_p50_mbps"], 2), fmtMean(m["rtt_infl_p50"], 2), fmtTotal(starved, 0))
		}
	}
	fmt.Fprintln(w, ct)
	for _, t := range []*report.Table{it, pt} {
		if len(t.Rows) > 0 {
			fmt.Fprintln(w, t)
		}
	}
}
