// Benchmarks regenerating each of the paper's tables and figures. One
// benchmark iteration runs the full (reduced-size) campaign a figure needs
// and renders it; -benchtime=1x gives one regeneration per target.
//
// The campaign size is kept small (1 iteration, 0.15x timeline) so the
// whole suite completes in minutes on one core; cmd/gsbench runs the
// full-fidelity versions (15 iterations, 9-minute traces).
package main

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/units"
)

// benchOpts is the reduced campaign used by the benchmarks.
func benchOpts() figures.Options {
	return figures.Options{Iterations: 1, TimeScale: 0.15, Workers: 8}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		out := c.Table1().String()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		panels := c.Figure2()
		if len(panels) != 6 {
			b.Fatalf("panels = %d", len(panels))
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		maps := c.Figure3()
		if len(maps) != 6 {
			b.Fatalf("heatmaps = %d", len(maps))
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		pts := c.Figure4()
		if len(pts) != 54 {
			b.Fatalf("points = %d", len(pts))
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		out := c.Table3().String()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		out := c.Table4().String()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		out := c.Table5().String()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkLossRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		out := c.LossTables().String()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSingleRun measures the cost of one full-fidelity 9-minute trace
// (the unit of work behind every table cell) and reports simulated events
// per run, engine dispatch throughput, and the sim/wall speedup. Metrics
// are aggregated across iterations and reported once — ReportMetric inside
// the loop would leave only the last iteration's numbers.
func BenchmarkSingleRun(b *testing.B) {
	b.ReportAllocs()
	var events float64
	var wall, simTime float64
	for i := 0; i < b.N; i++ {
		res := experiment.Run(experiment.RunConfig{
			Condition: experiment.Condition{
				System:    gamestream.Stadia,
				CCA:       "cubic",
				Capacity:  units.Mbps(25),
				QueueMult: 2,
			},
			Seed: uint64(i + 1),
		})
		events += float64(res.Engine.EventsDispatched)
		wall += res.Engine.WallTime.Seconds()
		simTime += res.Engine.SimTime.Seconds()
	}
	b.ReportMetric(events/float64(b.N), "events/run")
	if wall > 0 {
		b.ReportMetric(events/wall, "events/sec")
		b.ReportMetric(simTime/wall, "sim_x_real")
	}
}

// BenchmarkAblationAQM compares the drop-tail bufferbloat condition against
// the future-work AQM variants (DESIGN.md ablation).
func BenchmarkAblationAQM(b *testing.B) {
	for _, aqm := range []string{experiment.AQMDropTail, experiment.AQMCoDel, experiment.AQMFQCoDel} {
		b.Run(aqm, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := experiment.Run(experiment.RunConfig{
					Condition: experiment.Condition{
						System:    gamestream.Stadia,
						CCA:       "cubic",
						Capacity:  units.Mbps(25),
						QueueMult: 7,
						AQM:       aqm,
					},
					Timeline: metrics.PaperTimeline.Scale(0.2),
					Seed:     uint64(i + 1),
				})
				ff, ft := res.Cfg.Timeline.FairnessWindow()
				xs := res.RTTBetween(ff, ft)
				mean := 0.0
				for _, x := range xs {
					mean += x
				}
				if len(xs) > 0 {
					mean /= float64(len(xs))
				}
				b.ReportMetric(mean, "rtt_ms")
			}
		})
	}
}

// BenchmarkHarmTable regenerates the future-work harm analysis.
func BenchmarkHarmTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		if len(c.HarmTable().Rows) == 0 {
			b.Fatal("empty harm table")
		}
	}
}

// BenchmarkQoETable regenerates the future-work QoE comparison.
func BenchmarkQoETable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		if len(c.QoETable().Rows) == 0 {
			b.Fatal("empty QoE table")
		}
	}
}

// BenchmarkMixTable regenerates the future-work traffic mixtures.
func BenchmarkMixTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		if len(c.MixTable().Rows) == 0 {
			b.Fatal("empty mix table")
		}
	}
}

// BenchmarkAblationTable regenerates the mechanism knock-out comparison.
func BenchmarkAblationTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		if len(c.AblationTable().Rows) == 0 {
			b.Fatal("empty ablation table")
		}
	}
}

// BenchmarkResponseRecoveryTable regenerates the tech-report breakdown.
func BenchmarkResponseRecoveryTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.NewCampaign(benchOpts())
		if len(c.ResponseRecoveryTable().Rows) == 0 {
			b.Fatal("empty response/recovery table")
		}
	}
}

// BenchmarkAblationBBRv2 contrasts the paper's BBRv1 competitor with BBRv2
// against the most BBR-sensitive system (Luna) at the paper's starvation
// cell: v2's loss response should leave Luna a larger share.
func BenchmarkAblationBBRv2(b *testing.B) {
	for _, cca := range []string{"bbr", "bbr2"} {
		b.Run(cca, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiment.Run(experiment.RunConfig{
					Condition: experiment.Condition{
						System:    gamestream.Luna,
						CCA:       cca,
						Capacity:  units.Mbps(25),
						QueueMult: 0.5,
					},
					Timeline: metrics.PaperTimeline.Scale(0.15),
					Seed:     uint64(i + 1),
				})
				ff, ft := r.Cfg.Timeline.FairnessWindow()
				b.ReportMetric(r.GameSeries().MeanBetween(ff, ft), "game_mbps")
			}
		})
	}
}
