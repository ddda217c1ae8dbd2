package tcp

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// codelNet builds a single Cubic pair over a CoDel bottleneck.
func codelNet() (*sim.Engine, *netem.CoDel, *Sender, *Receiver) {
	eng := sim.NewEngine(11)
	var ids uint64
	rate := units.Mbps(20)
	rtt := 20 * time.Millisecond

	var sndH, rcvH *netem.Host
	cd := netem.NewCoDel(7 * units.BDP(rate, rtt))
	fwd := netem.NewDelay(eng, rtt/2, packet.HandlerFunc(func(p *packet.Packet) { rcvH.Handle(p) }))
	sh := netem.NewShaper(eng, rate, 2*packet.MTU, cd, fwd)
	rev := netem.NewDelay(eng, rtt/2, packet.HandlerFunc(func(p *packet.Packet) { sndH.Handle(p) }))
	sndH = netem.NewHost(eng, 1, sh, &ids)
	rcvH = netem.NewHost(eng, 2, rev, &ids)

	s := NewSender(sndH, 1, 2, New(AlgCubic))
	r := NewReceiver(rcvH, 1, 1)
	return eng, cd, s, r
}

func TestCoDelDropsSaturatingCubic(t *testing.T) {
	eng, cd, s, _ := codelNet()
	s.Start()
	eng.Run(sim.At(20 * time.Second))
	if cd.Drops == 0 {
		t.Error("CoDel never dropped a saturating Cubic flow")
	}
}

func TestCoDelKeepsCubicQueueNearTarget(t *testing.T) {
	eng, cd, s, _ := codelNet()
	s.Start()
	sum, n := 0.0, 0
	probe := sim.NewTicker(eng, 100*time.Millisecond, func() {
		if eng.Now() > sim.At(5*time.Second) {
			sum += float64(cd.Bytes())
			n++
		}
	})
	probe.Start(false)
	eng.Run(sim.At(30 * time.Second))
	avg := units.ByteSize(sum / float64(n))
	// CoDel holds the queue near its 5 ms target: 12.5 kB at 20 Mb/s,
	// against the 7×BDP (350 kB) limit a drop-tail queue would fill.
	// Allow generous slack for Cubic's sawtooth.
	if avg > 40*units.KB {
		t.Errorf("average queue %v under CoDel, want near the 5 ms target", avg)
	}
}
