package figures

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/qoe"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/units"
)

// HarmTable implements the harm-based comparison the paper proposes as
// future work (Ware et al.): for every contended condition it reports how
// much of the game system's solo throughput the competing flow destroyed
// (harm ∈ [0,1]) and the RTT harm, using the solo sweep as the baseline.
func (c *Campaign) HarmTable() *report.Table {
	solo := c.Solo()
	cont := c.Contended()
	tb := report.NewTable("Harm analysis (Ware et al.): competing flow's damage to the game system",
		"System", "CCA", "Capacity", "Queue", "Thr harm", "RTT harm", "FPS harm")
	p := experiment.PaperSweep()
	for _, sys := range p.Systems {
		for _, cca := range p.CCAs {
			for _, capy := range p.Capacities {
				for _, qm := range p.QueueMults {
					sCond := solo.Find(c.cond(sys, "", capy, qm))
					kCond := cont.Find(c.cond(sys, cca, capy, qm))
					if sCond == nil || kCond == nil {
						continue
					}
					from, to := sCond.ContentionWindow()
					thrHarm := metrics.Harm(sCond.GameRate(from, to).Mean, kCond.GameRate(from, to).Mean)
					rttHarm := metrics.HarmInverse(sCond.RTTStats(from, to).Mean, kCond.RTTStats(from, to).Mean)
					fpsHarm := metrics.Harm(sCond.FPSStats(from, to).Mean, kCond.FPSStats(from, to).Mean)
					tb.AddRow(string(sys), cca,
						fmt.Sprintf("%.0f", capy.Mbit()),
						fmt.Sprintf("%.1fx", qm),
						fmt.Sprintf("%.2f", thrHarm),
						fmt.Sprintf("%.2f", rttHarm),
						fmt.Sprintf("%.2f", fpsHarm))
				}
			}
		}
	}
	return tb
}

// Mixes are the future-work traffic mixtures evaluated by MixTable.
var Mixes = []struct {
	Name        string
	Competitors []experiment.Competitor
}{
	{"1x cubic", []experiment.Competitor{{Kind: experiment.CompIperf, CCA: "cubic"}}},
	{"2x cubic", []experiment.Competitor{
		{Kind: experiment.CompIperf, CCA: "cubic"}, {Kind: experiment.CompIperf, CCA: "cubic"}}},
	{"1x bbr", []experiment.Competitor{{Kind: experiment.CompIperf, CCA: "bbr"}}},
	{"cubic+bbr", []experiment.Competitor{
		{Kind: experiment.CompIperf, CCA: "cubic"}, {Kind: experiment.CompIperf, CCA: "bbr"}}},
	{"dash/cubic", []experiment.Competitor{{Kind: experiment.CompDash, CCA: "cubic"}}},
	{"dash/bbr", []experiment.Competitor{{Kind: experiment.CompDash, CCA: "bbr"}}},
	{"videocall", []experiment.Competitor{{Kind: experiment.CompVideoCall}}},
	{"dash+call", []experiment.Competitor{
		{Kind: experiment.CompDash, CCA: "cubic"}, {Kind: experiment.CompVideoCall}}},
	{"ledbat", []experiment.Competitor{{Kind: experiment.CompIperf, CCA: "ledbat"}}},
}

// MixTable runs the future-work traffic mixtures (25 Mb/s, 2x BDP) against
// each game system and reports the shares and player-experience measures.
func (c *Campaign) MixTable() *report.Table {
	tb := report.NewTable("Traffic mixtures at 25 Mb/s, 2x BDP queue (paper §5 future work)",
		"System", "Mix", "Game (Mb/s)", "Cross (Mb/s)", "RTT (ms)", "FPS")
	var rows []experiment.RunConfig
	for _, sys := range gamestream.Systems {
		for _, mix := range Mixes {
			rows = append(rows, experiment.RunConfig{
				Condition: experiment.Condition{
					System: sys, Capacity: units.Mbps(25), QueueMult: 2, AQM: c.Opts.AQM,
				},
				Competitors: mix.Competitors,
			})
		}
	}
	for i, row := range c.runRows(rows, 9000) {
		tb.AddRow(append([]string{string(rows[i].System), Mixes[i%len(Mixes)].Name}, sharesRow(row)...)...)
	}
	return tb
}

// rowStats accumulates one table row's runs over their fairness windows.
type rowStats struct {
	game, cross, rtt, fps  stats.Accumulator
	jain, tputP50, starved stats.Accumulator
}

// runRows executes Options.Iterations runs of every row template, seeded
// seedBase+iteration, through the in-process executor with the campaign's
// workers and cache, then folds each row's runs in iteration order, so the
// tables are byte-identical at any worker count. These runs feed no
// Progress sink: their condition strings collide with the solo sweep cells
// the sinks aggregate (every mix reads stadia/solo/B25/q2.0x).
func (c *Campaign) runRows(rows []experiment.RunConfig, seedBase uint64) []rowStats {
	tl := c.Opts.timeline()
	iters := c.Opts.Iterations
	var jobs []experiment.Job
	for _, row := range rows {
		for it := 0; it < iters; it++ {
			cfg := row
			cfg.Timeline, cfg.Seed = tl, seedBase+uint64(it)
			jobs = append(jobs, experiment.Job{Cfg: cfg, Iter: it})
		}
	}
	runs := make([]*experiment.RunResult, len(jobs))
	if experiment.Execute(c.ctx, jobs, c.Opts.Workers, c.Opts.Cache, experiment.Sinks{},
		func(i int, r *experiment.RunResult, _ bool) { runs[i] = r }) < len(jobs) {
		c.interrupted = true
	}
	ff, ft := tl.FairnessWindow()
	out := make([]rowStats, len(rows))
	for i, r := range runs {
		if r == nil {
			continue // never started: the campaign was interrupted
		}
		a := &out[i/iters]
		a.game.Add(r.GameSeries().MeanBetween(ff, ft))
		a.cross.Add(r.TCPSeries().MeanBetween(ff, ft))
		if xs := r.RTTBetween(ff, ft); len(xs) > 0 {
			a.rtt.Add(stats.Mean(xs))
		}
		a.fps.Add(r.FPSSeries().MeanBetween(ff, ft))
		a.jain.Add(r.FlowSummary.Jain)
		a.tputP50.Add(r.FlowSummary.TputP50Mbps)
		a.starved.Add(float64(r.FlowSummary.Starved))
	}
	return out
}

// sharesRow renders a row's mean game and cross-traffic bitrates, RTT and
// frame rate.
func sharesRow(a rowStats) []string {
	return []string{
		fmt.Sprintf("%.1f", a.game.Mean()),
		fmt.Sprintf("%.1f", a.cross.Mean()),
		fmt.Sprintf("%.1f", a.rtt.Mean()),
		fmt.Sprintf("%.1f", a.fps.Mean()),
	}
}

// QoETable combines §4.3's indicators (frame rate, RTT, loss) into the
// qoe package's 0–100 score per contended condition — the "assess and
// compare QoE across systems" item from the paper's future work.
func (c *Campaign) QoETable() *report.Table {
	model := qoe.DefaultModel()
	return c.gridTable("QoE score (0-100) during contention", vsCCAs(c.Contended()), func(cond *experiment.ConditionResult) string {
		from, to := cond.ContentionWindow()
		var acc stats.Accumulator
		for _, r := range cond.Runs {
			fps := r.FPSSeries().MeanBetween(from, to)
			rtt := time.Duration(stats.Mean(r.RTTBetween(from, to)) * float64(time.Millisecond))
			acc.Add(model.Score(fps, rtt, r.LossBetween(from, to)))
		}
		return fmt.Sprintf("%.0f", acc.Mean())
	})
}

// ResponseRecoveryTable is the breakdown the paper defers to its technical
// report: per condition, the response time C (adjusting to the arriving
// flow) and recovery time E (returning to the original bitrate after it
// departs), measured on the across-run mean bitrate series (§4.2). A
// condition that never settled within the window — the paper's "never
// responds / never recovers" cases — prints the window as a bound, ">170".
func (c *Campaign) ResponseRecoveryTable() *report.Table {
	sweep := c.Contended()
	tb := report.NewTable("Response and recovery times (s), per condition",
		"System", "CCA", "Capacity", "Queue", "Response", "Recovery")
	p := experiment.PaperSweep()
	for _, sys := range p.Systems {
		for _, cca := range p.CCAs {
			for _, capy := range p.Capacities {
				for _, qm := range p.QueueMults {
					cond := sweep.Find(c.cond(sys, cca, capy, qm))
					if cond == nil {
						continue
					}
					rr := cond.ResponseRecovery()
					tb.AddRow(string(sys), cca,
						fmt.Sprintf("%.0f", capy.Mbit()),
						fmt.Sprintf("%.1fx", qm),
						metrics.FormatSettle(rr.Response, rr.Responded, ""),
						metrics.FormatSettle(rr.Recovery, rr.Recovered, ""))
				}
			}
		}
	}
	return tb
}

// AQMTable reruns the worst bufferbloat condition (7x BDP, competing
// Cubic) under each queue discipline — the paper's AQM future-work item.
func (c *Campaign) AQMTable() *report.Table {
	tb := report.NewTable("Queue discipline comparison: 25 Mb/s, 7x BDP, vs TCP Cubic",
		"System", "Qdisc", "Game (Mb/s)", "TCP (Mb/s)", "RTT (ms)", "FPS")
	var rows []experiment.RunConfig
	for _, sys := range gamestream.Systems {
		for _, aqm := range []string{experiment.AQMDropTail, experiment.AQMCoDel, experiment.AQMFQCoDel} {
			rows = append(rows, experiment.RunConfig{Condition: experiment.Condition{
				System: sys, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 7, AQM: aqm,
			}})
		}
	}
	for i, row := range c.runRows(rows, 7000) {
		tb.AddRow(append([]string{string(rows[i].System), rows[i].AQM}, sharesRow(row)...)...)
	}
	return tb
}
