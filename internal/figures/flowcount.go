package figures

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/report"
	"repro/internal/units"
)

// FlowCounts is the competing-flow axis of FlowCountTable: from the paper's
// 1-vs-1 duel up to ISP-aggregate populations sharing one bottleneck.
var FlowCounts = []int{0, 1, 2, 5, 10, 20, 50}

// FlowCountTable measures how a game stream degrades as the bottleneck
// population grows: each row runs K on/off cubic flows (heavy-tailed session
// times, see experiment.FlowPopulation) against one stream at 25 Mb/s, 2x BDP
// and reports the stream's bitrate alongside the cross-flow fairness metrics
// — the data behind docs/SCENARIOS.md's bitrate-vs-flow-count figure.
func (c *Campaign) FlowCountTable() *report.Table {
	tb := report.NewTable("Stream bitrate vs competing-flow count (25 Mb/s, 2x BDP, on/off cubic population)",
		"System", "Flows", "Game (Mb/s)", "RTT (ms)", "FPS", "Jain", "Tput p50", "Starved")
	var rows []experiment.RunConfig
	for _, sys := range gamestream.Systems {
		for _, n := range FlowCounts {
			rows = append(rows, experiment.RunConfig{
				Condition: experiment.Condition{
					System: sys, Capacity: units.Mbps(25), QueueMult: 2, AQM: c.Opts.AQM,
				},
				Population: experiment.FlowPopulation{Flows: n},
			})
		}
	}
	for i, a := range c.runRows(rows, 11000) {
		n := rows[i].Population.Flows
		jainCol, p50Col, starvedCol := "-", "-", "-"
		if n > 0 {
			jainCol = fmt.Sprintf("%.3f", a.jain.Mean())
			p50Col = fmt.Sprintf("%.2f", a.tputP50.Mean())
			starvedCol = fmt.Sprintf("%.1f", a.starved.Mean())
		}
		tb.AddRow(string(rows[i].System), fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", a.game.Mean()),
			fmt.Sprintf("%.1f", a.rtt.Mean()),
			fmt.Sprintf("%.1f", a.fps.Mean()),
			jainCol, p50Col, starvedCol)
	}
	return tb
}
