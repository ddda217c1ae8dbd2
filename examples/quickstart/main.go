// Quickstart: run one experiment — Google Stadia competing with a TCP
// Cubic bulk download on a 25 Mb/s bottleneck with a 2x-BDP queue — and
// print the headline measurements the paper reports for that condition.
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
	scale := flag.Float64("scale", 1.0, "timeline compression (1.0 = full 9-minute trace)")
	flag.Parse()

	fmt.Println("Running: Stadia vs TCP Cubic, 25 Mb/s, 2x BDP queue (9-minute trace)...")
	res := experiment.Run(experiment.RunConfig{
		Condition: experiment.Condition{
			System:    gamestream.Stadia,
			CCA:       "cubic",
			Capacity:  units.Mbps(25),
			QueueMult: 2,
		},
		Timeline: metrics.PaperTimeline.Scale(*scale),
		Seed:     1,
	})

	// Record carries the paper's headline measures over the stabilised
	// contention window; response/recovery come from the bitrate series.
	rec := res.Record(0)
	rr := metrics.MeasureResponseRecovery(res.GameSeries(), res.Cfg.Timeline)
	fmt.Printf("\nBitrate before the TCP flow arrives:  %5.1f Mb/s\n", rr.OriginalMbs)
	fmt.Printf("Bitrate while competing (stabilised): %5.1f Mb/s\n", rr.AdjustedMbs)
	fmt.Printf("Fairness ratio (game-tcp)/capacity:   %+5.2f  (0 = equal split)\n", rec.Fairness)
	fmt.Printf("Response time after flow arrival:     %5.1f s (responded=%v)\n",
		rr.Response.Seconds(), rr.Responded)
	fmt.Printf("Recovery time after flow departure:   %5.1f s (recovered=%v)\n",
		rr.Recovery.Seconds(), rr.Recovered)
	fmt.Printf("Mean RTT during contention:           %5.1f ms\n", rec.RTTMs)
	fmt.Printf("Displayed frame rate:                 %5.1f f/s\n", rec.FPS)
	fmt.Printf("\nFrames: %d displayed, %d dropped; %d NACK retransmissions; %d TCP retransmits\n",
		res.FramesDisplayed, res.FramesDropped, res.NackRetx, res.TCPRetransmits)
}
