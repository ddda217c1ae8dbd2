// Bufferbloat: sweep the bottleneck queue size for one system against both
// TCP Cubic and TCP BBR, showing how router buffering drives the game's
// round-trip time (the Table 3/4 motif): Cubic fills whatever buffer
// exists, while BBR's 2x-BDP inflight cap bounds the damage.
package main

import (
	"flag"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/units"
)

func main() {
	scale := flag.Float64("scale", 0.4, "timeline compression")
	flag.Parse()

	fmt.Println("GeForce Now on a 25 Mb/s bottleneck, queue sweep (compressed timeline)")
	fmt.Printf("%-8s  %-22s  %-22s\n", "queue", "vs TCP Cubic", "vs TCP BBR")
	fmt.Printf("%-8s  %-10s %-11s  %-10s %-11s\n", "", "RTT (ms)", "game (Mb/s)", "RTT (ms)", "game (Mb/s)")

	for _, q := range []float64{0.5, 1, 2, 4, 7, 12} {
		row := fmt.Sprintf("%-8s", fmt.Sprintf("%.1fx", q))
		for _, cca := range []string{"cubic", "bbr"} {
			res := experiment.Run(experiment.RunConfig{
				Condition: experiment.Condition{
					System:    gamestream.GeForce,
					CCA:       cca,
					Capacity:  units.Mbps(25),
					QueueMult: q,
				},
				// Default 3.6-minute trace: enough for steady state.
				Timeline: metrics.PaperTimeline.Scale(*scale),
				Seed:     7,
			})
			rec := res.Record(0)
			row += fmt.Sprintf("  %-10.1f %-11.1f", rec.RTTMs, rec.GameMbps)
		}
		fmt.Println(row)
	}
	fmt.Println("\nNote how RTT grows with the buffer against Cubic (bufferbloat) but")
	fmt.Println("saturates against BBR, whose inflight cap bounds the standing queue.")
}
