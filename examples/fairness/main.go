// Fairness: build a Figure-3-style heatmap for every system against a
// chosen congestion control — the normalised bitrate difference
// (game − tcp)/capacity across the capacity × queue grid.
package main

import (
	"flag"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/units"
)

func main() {
	cca := flag.String("cca", "cubic", "competing flow: cubic or bbr")
	scale := flag.Float64("scale", 0.4, "timeline compression")
	flag.Parse()

	for _, sys := range gamestream.Systems {
		h := &report.Heatmap{
			Title: fmt.Sprintf("(game - tcp)/capacity: %s vs TCP %s", sys, *cca),
			Cols:  []string{"q 0.5x", "q 2x", "q 7x"},
		}
		for _, capMb := range []float64{35, 25, 15} {
			h.Rows = append(h.Rows, fmt.Sprintf("%.0f Mb/s", capMb))
			var row []float64
			for _, q := range []float64{0.5, 2, 7} {
				res := experiment.Run(experiment.RunConfig{
					Condition: experiment.Condition{
						System:    sys,
						CCA:       *cca,
						Capacity:  units.Mbps(capMb),
						QueueMult: q,
					},
					Timeline: metrics.PaperTimeline.Scale(*scale),
					Seed:     11,
				})
				row = append(row, res.Record(0).Fairness)
			}
			h.Cells = append(h.Cells, row)
		}
		fmt.Println(h)
	}
}
