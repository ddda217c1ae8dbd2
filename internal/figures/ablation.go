package figures

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/report"
	"repro/internal/units"
)

// ablation describes one mechanism knock-out: a profile mutation and the
// condition where the mechanism matters (DESIGN.md design-choice list).
type ablation struct {
	Name   string
	System gamestream.System
	CCA    string
	Queue  float64
	Mutate func(p *gamestream.Profile)
}

// ablations knocks out each calibrated mechanism in the condition where it
// is load-bearing.
var ablations = []ablation{
	{
		// Stadia's adaptive overuse threshold is what lets it compete
		// with Cubic's standing queue; frozen at its initial value the
		// controller should be starved.
		Name: "stadia: fixed (non-adaptive) delay threshold", System: gamestream.Stadia,
		CCA: "cubic", Queue: 2,
		Mutate: func(p *gamestream.Profile) {
			p.NewController = func() gamestream.Controller {
				return gamestream.NewDelayGradient(gamestream.DelayGradientConfig{
					Min: units.Mbps(6), Max: units.Mbps(27.5),
					IncreaseFactor: 1.012,
					// Frozen at the initial 13 ms threshold.
					InitThreshold: 13 * time.Millisecond,
					MaxThreshold:  13 * time.Millisecond,
					GainUp:        0, GainDown: 0,
					Beta: 0.85, LossThreshold: 0.10,
					HoldAfterBackoff: 800 * time.Millisecond,
					AdditiveStep:     units.Kbps(40),
				})
			}
		},
	},
	{
		// Luna's loss-persistence rule is what lets it tolerate Cubic's
		// isolated overflow bursts; cutting on every lossy window should
		// push it well below its stock share.
		Name: "luna: no loss-persistence rule", System: gamestream.Luna,
		CCA: "cubic", Queue: 0.5,
		Mutate: func(p *gamestream.Profile) {
			p.NewController = func() gamestream.Controller {
				return gamestream.NewLossAIMD(gamestream.LossAIMDConfig{
					Min: units.Mbps(2.4), Max: units.Mbps(23.7),
					Beta: 0.75, LossThreshold: 0.015,
					PersistWindows:    1, // cut on any lossy window
					EventDebounce:     800 * time.Millisecond,
					GrowthPerSec:      0.015,
					DelayThreshold:    30 * time.Millisecond,
					MaxDelayThreshold: 130 * time.Millisecond,
					RxHeadroom:        1.15,
				})
			}
		},
	},
	{
		// Stadia's NACK repair keeps frames alive through BBR's loss; a
		// NACK-less Stadia should display fewer frames at the lossy cell.
		Name: "stadia: NACK disabled", System: gamestream.Stadia,
		CCA: "bbr", Queue: 0.5,
		Mutate: func(p *gamestream.Profile) { p.NACK = false },
	},
	{
		// GeForce's FEC budget is its frame-rate insurance.
		Name: "geforce: FEC disabled", System: gamestream.GeForce,
		CCA: "bbr", Queue: 0.5,
		Mutate: func(p *gamestream.Profile) { p.FECRate = 0 },
	},
}

// AblationTable knocks out each design choice and reports the stock versus
// ablated behaviour at the condition where the mechanism is load-bearing.
func (c *Campaign) AblationTable() *report.Table {
	tb := report.NewTable("Ablations: each calibrated mechanism at its load-bearing condition (25 Mb/s)",
		"Ablation", "Condition", "Game Mb/s (stock)", "(ablated)", "FPS (stock)", "(ablated)")
	// Rows alternate stock and ablated runs of each ablation's condition.
	var rows []experiment.RunConfig
	for _, ab := range ablations {
		cond := experiment.Condition{
			System: ab.System, CCA: ab.CCA, Capacity: units.Mbps(25),
			QueueMult: ab.Queue, AQM: c.Opts.AQM,
		}
		prof := gamestream.ProfileFor(ab.System)
		ab.Mutate(&prof)
		rows = append(rows,
			experiment.RunConfig{Condition: cond},
			experiment.RunConfig{Condition: cond, Profile: &prof})
	}
	rs := c.runRows(rows, 5000)
	for i, ab := range ablations {
		stock, abl := rs[2*i], rs[2*i+1]
		tb.AddRow(ab.Name,
			fmt.Sprintf("%s/%s q%.1fx", ab.System, ab.CCA, ab.Queue),
			fmt.Sprintf("%.1f", stock.game.Mean()),
			fmt.Sprintf("%.1f", abl.game.Mean()),
			fmt.Sprintf("%.1f", stock.fps.Mean()),
			fmt.Sprintf("%.1f", abl.fps.Mean()))
	}
	return tb
}
