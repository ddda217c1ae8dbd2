package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// lossyNet builds a single-pair network whose forward path drops packets
// according to a seeded random process with the given drop probability.
func lossyNet(seed uint64, dropProb float64, alg string) (*sim.Engine, *Sender, *Receiver, *invariantProbe) {
	eng := sim.NewEngine(seed)
	rng := eng.Rand().Fork()
	var ids uint64

	var sndHost, rcvHost *netem.Host
	fwd := netem.NewDelay(eng, 10*time.Millisecond, packet.HandlerFunc(func(p *packet.Packet) {
		rcvHost.Handle(p)
	}))
	dropper := packet.HandlerFunc(func(p *packet.Packet) {
		if rng.Float64() < dropProb {
			return
		}
		fwd.Handle(p)
	})
	link := netem.NewLink(eng, units.Mbps(20), 0, dropper)
	rev := netem.NewDelay(eng, 10*time.Millisecond, packet.HandlerFunc(func(p *packet.Packet) {
		sndHost.Handle(p)
	}))
	sndHost = netem.NewHost(eng, 1, link, &ids)
	rcvHost = netem.NewHost(eng, 2, rev, &ids)

	s := NewSender(sndHost, 1, 2, New(alg))
	r := NewReceiver(rcvHost, 1, 1)
	probe := &invariantProbe{s: s, r: r}
	return eng, s, r, probe
}

type invariantProbe struct {
	s       *Sender
	r       *Receiver
	lastUna int64
	lastRcv int64
	bad     string
}

func (p *invariantProbe) check() {
	switch {
	case p.s.sndUna < p.lastUna:
		p.bad = "cumulative ACK moved backwards"
	case p.r.rcvNxt < p.lastRcv:
		p.bad = "receiver frontier moved backwards"
	case p.s.sndUna > p.s.sndNxt:
		p.bad = "acked beyond sent"
	case p.r.BytesReceived > p.s.Stats.BytesSent:
		p.bad = "received more than sent"
	case p.s.CC().CwndBytes() < packet.MSS:
		p.bad = "cwnd below 1 MSS"
	case p.s.pipeBytes < 0:
		p.bad = "negative inflight"
	}
	p.lastUna = p.s.sndUna
	p.lastRcv = p.r.rcvNxt
}

// TestInvariantsUnderRandomLoss drives every algorithm through random-loss
// paths and asserts the core transport invariants at every probe tick.
func TestInvariantsUnderRandomLoss(t *testing.T) {
	for _, alg := range []string{AlgReno, AlgCubic, AlgBBR} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			f := func(seed uint16, dropPerMille uint8) bool {
				drop := float64(dropPerMille%200) / 1000 // 0..20%
				eng, s, r, probe := lossyNet(uint64(seed)+1, drop, alg)
				s.Start()
				tick := sim.NewTicker(eng, 20*time.Millisecond, probe.check)
				tick.Start(false)
				eng.Run(sim.At(4 * time.Second))
				if probe.bad != "" {
					t.Logf("%s: %s (drop=%.1f%%)", alg, probe.bad, drop*100)
					return false
				}
				// Liveness: some data must get through below 20% loss.
				return r.BytesReceived > 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStreamIntegrityUnderLoss verifies no data corruption semantics: the
// receiver's contiguous frontier never exceeds the sender's highest sent
// byte, and after the path heals everything sent (within a limit) arrives.
func TestStreamIntegrityUnderLoss(t *testing.T) {
	eng, s, r, _ := lossyNet(99, 0.05, AlgCubic)
	const total = 2_000_000
	s.SetLimit(total)
	s.Start()
	eng.Run(sim.At(60 * time.Second))
	if r.BytesReceived != total {
		t.Errorf("received %d of %d despite retransmission", r.BytesReceived, total)
	}
	if s.sndUna != total {
		t.Errorf("sender acked %d of %d", s.sndUna, total)
	}
}

// TestNoRetransmitsOnCleanPath: a loss-free path must deliver with zero
// retransmissions for every algorithm.
func TestNoRetransmitsOnCleanPath(t *testing.T) {
	for _, alg := range []string{AlgReno, AlgCubic, AlgBBR} {
		eng, s, _, _ := lossyNet(7, 0, alg)
		s.SetLimit(1_000_000)
		s.Start()
		eng.Run(sim.At(30 * time.Second))
		if s.Stats.Retransmits != 0 {
			t.Errorf("%s: %d spurious retransmits on a clean path", alg, s.Stats.Retransmits)
		}
		if s.Stats.RTOs != 0 {
			t.Errorf("%s: %d RTOs on a clean path", alg, s.Stats.RTOs)
		}
	}
}

// TestBBRInflightCapProperty: BBR's inflight stays at or below
// cwnd_gain x estimated BDP (plus one segment of slack) once in PROBE_BW.
func TestBBRInflightCapProperty(t *testing.T) {
	rate := units.Mbps(25)
	rtt := 16 * time.Millisecond
	tn := newTestNet(1, rate, 7*units.BDP(rate, rtt), rtt/2)
	s, _ := tn.pair(0, AlgBBR)
	s.Start()
	b := s.CC().(*BBR)
	violations := 0
	probe := sim.NewTicker(tn.eng, 50*time.Millisecond, func() {
		if b.State() != "PROBE_BW" {
			return
		}
		cap := b.bdpBytes(bbrCwndGain) + int64(packet.MSS)
		if s.Inflight() > cap {
			violations++
		}
	})
	probe.Start(false)
	tn.eng.Run(sim.At(20 * time.Second))
	if violations > 0 {
		t.Errorf("inflight exceeded 2x estimated BDP %d times", violations)
	}
}

// TestCubicWindowFunction checks the closed-form W(t) against the
// implementation's growth right after a loss event on an idealised path.
func TestCubicWindowFunction(t *testing.T) {
	c := NewCubic()
	c.Init(1448)
	// Force a known post-loss state.
	c.cwnd = 100 * 1448
	c.OnLoss(0, 0)
	if got := c.segs(c.cwnd); got < 69 || got > 71 {
		t.Fatalf("post-loss cwnd = %.1f segments, want 70 (beta=0.7)", got)
	}
	if c.wMax != 100 {
		t.Fatalf("wMax = %v, want 100", c.wMax)
	}
	// K = cbrt(wMax*(1-beta)/C) = cbrt(100*0.3/0.4) = cbrt(75) ~ 4.217s.
	// Feed ACKs with a stable RTT for ~K seconds: the window must return
	// to ~wMax at t=K.
	rtt := 50 * time.Millisecond
	now := sim.At(0)
	for now.Seconds() < 4.217 {
		now = now.Add(rtt)
		c.OnAck(AckSample{
			Now: now, BytesAcked: 14480, RTT: rtt, SRTT: rtt, MinRTT: rtt,
			MSS: 1448, RoundTrips: int64(now / sim.At(rtt)),
		})
	}
	got := c.segs(c.cwnd)
	if got < 90 || got > 115 {
		t.Errorf("cwnd at t=K is %.1f segments, want ~100 (wMax)", got)
	}
}
