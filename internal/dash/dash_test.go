package dash

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// dashNet wires a server and client through a shaped bottleneck.
func dashNet(rate units.Rate, seed uint64) (*sim.Engine, *netem.Host, *netem.Host) {
	eng := sim.NewEngine(seed)
	var ids uint64
	var srv, cli *netem.Host
	q := netem.NewDropTail(2 * units.BDP(rate, 20*time.Millisecond))
	fwd := netem.NewDelay(eng, 10*time.Millisecond, packet.HandlerFunc(func(p *packet.Packet) { cli.Handle(p) }))
	sh := netem.NewShaper(eng, rate, 2*packet.MTU, q, fwd)
	rev := netem.NewDelay(eng, 10*time.Millisecond, packet.HandlerFunc(func(p *packet.Packet) { srv.Handle(p) }))
	srv = netem.NewHost(eng, 1, sh, &ids)
	cli = netem.NewHost(eng, 2, rev, &ids)
	return eng, srv, cli
}

func TestClimbsLadderOnFastLink(t *testing.T) {
	eng, srv, cli := dashNet(units.Mbps(50), 1)
	s := New(srv, cli, 1, "cubic")
	s.Start()
	eng.Run(sim.At(120 * time.Second))
	// A 50 Mb/s link carries the top rung (16 Mb/s) with room to spare.
	if s.Quality() != len(ladder)-1 {
		t.Errorf("quality = %d, want top rung %d", s.Quality(), len(ladder)-1)
	}
	if s.Stalls != 0 {
		t.Errorf("stalled %d times on an overprovisioned link", s.Stalls)
	}
	if s.SegmentsFetched < 25 {
		t.Errorf("fetched only %d segments in 120 s", s.SegmentsFetched)
	}
}

func TestSettlesBelowCapacity(t *testing.T) {
	eng, srv, cli := dashNet(units.Mbps(6), 2)
	s := New(srv, cli, 1, "cubic")
	s.Start()
	eng.Run(sim.At(180 * time.Second))
	// Steady state: the chosen rung's bitrate must fit within capacity.
	rate := ladder[s.Quality()]
	if rate > units.Mbps(6) {
		t.Errorf("chose %v on a 6 Mb/s link", rate)
	}
	// With safety factor 0.8 it should reach 3 Mb/s (rung 2) at least.
	if s.Quality() < 2 {
		t.Errorf("quality = %d, want >= 2 on a 6 Mb/s link", s.Quality())
	}
}

func TestBufferBounded(t *testing.T) {
	eng, srv, cli := dashNet(units.Mbps(50), 3)
	s := New(srv, cli, 1, "cubic")
	s.Start()
	maxBuf := time.Duration(0)
	probe := sim.NewTicker(eng, time.Second, func() {
		if b := s.Buffer(); b > maxBuf {
			maxBuf = b
		}
	})
	probe.Start(false)
	eng.Run(sim.At(120 * time.Second))
	if maxBuf > maxBuffer+segmentDur+time.Second {
		t.Errorf("buffer reached %v, want bounded near %v+1 segment", maxBuf, maxBuffer)
	}
}

func TestOnOffTrafficPattern(t *testing.T) {
	// Once the buffer is full, the connection must go idle between
	// segment fetches (the ABR on-off pattern).
	eng, srv, cli := dashNet(units.Mbps(50), 4)
	s := New(srv, cli, 1, "cubic")
	s.Start()
	eng.Run(sim.At(60 * time.Second))
	sent := s.Sender.Stats.BytesSent
	// Steady state sends at most the playback rate (top rung 16 Mb/s)
	// plus startup: far below what a 50 Mb/s link could carry.
	upper := int64(units.Mbps(16).BytesIn(60*time.Second)) * 13 / 10
	if sent > upper {
		t.Errorf("sent %d bytes in 60 s; on-off pacing should cap near playback rate (%d)", sent, upper)
	}
}

func TestStopHaltsFetching(t *testing.T) {
	eng, srv, cli := dashNet(units.Mbps(20), 5)
	s := New(srv, cli, 1, "cubic")
	s.Start()
	eng.Run(sim.At(30 * time.Second))
	s.Stop()
	fetched := s.SegmentsFetched
	eng.Run(sim.At(60 * time.Second))
	if s.SegmentsFetched > fetched+1 {
		t.Errorf("fetched %d more segments after Stop", s.SegmentsFetched-fetched)
	}
}

func TestMeanQuality(t *testing.T) {
	eng, srv, cli := dashNet(units.Mbps(50), 6)
	s := New(srv, cli, 1, "cubic")
	s.Start()
	eng.Run(sim.At(90 * time.Second))
	mq := s.MeanQuality()
	if mq <= 0 || mq > float64(len(ladder)-1) {
		t.Errorf("mean quality = %v out of range", mq)
	}
}

// TestDefaults pins the session's fixed parameters at the usual player
// values and checks New runs the transfer over the CCA it is given.
func TestDefaults(t *testing.T) {
	if segmentDur != 4*time.Second || maxBuffer != 24*time.Second || safetyFactor != 0.8 {
		t.Errorf("segment %v, buffer %v, safety %v; want 4s, 24s, 0.8", segmentDur, maxBuffer, safetyFactor)
	}
	_, srv, cli := dashNet(units.Mbps(20), 7)
	for i, cca := range []string{"cubic", "bbr"} {
		if got := New(srv, cli, packet.FlowID(i+1), cca).Sender.CC().Name(); got != cca {
			t.Errorf("CCA = %q, want %q", got, cca)
		}
	}
}
