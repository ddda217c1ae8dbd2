package tcp

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// testNet is a two-host dumbbell: sender host(s) -> bottleneck shaper ->
// one-way delay -> receiver host, with the reverse path delay-only.
type testNet struct {
	eng    *sim.Engine
	shaper *netem.Shaper
	queue  *netem.DropTail
	sndH   []*netem.Host
	rcvH   []*netem.Host
	ids    uint64
}

// newTestNet builds n connection pairs sharing one bottleneck of the given
// rate, queue limit, and symmetric one-way delay owd.
func newTestNet(n int, rate units.Rate, qlimit units.ByteSize, owd time.Duration) *testNet {
	tn := &testNet{eng: sim.NewEngine(7)}
	rcvRouter := netem.NewRouter()
	sndRouter := netem.NewRouter()

	tn.queue = netem.NewDropTail(qlimit)
	fwdDelay := netem.NewDelay(tn.eng, owd, rcvRouter)
	tn.shaper = netem.NewShaper(tn.eng, rate, 2*packet.MTU, tn.queue, fwdDelay)
	revDelay := netem.NewDelay(tn.eng, owd, sndRouter)

	for i := 0; i < n; i++ {
		snd := netem.NewHost(tn.eng, packet.Addr(100+i), tn.shaper, &tn.ids)
		rcv := netem.NewHost(tn.eng, packet.Addr(200+i), revDelay, &tn.ids)
		sndRouter.Route(snd.Addr, snd)
		rcvRouter.Route(rcv.Addr, rcv)
		tn.sndH = append(tn.sndH, snd)
		tn.rcvH = append(tn.rcvH, rcv)
	}
	return tn
}

// pair wires up sender i with algorithm alg and returns both endpoints.
func (tn *testNet) pair(i int, alg string) (*Sender, *Receiver) {
	flow := packet.FlowID(i + 1)
	s := NewSender(tn.sndH[i], flow, tn.rcvH[i].Addr, New(alg))
	r := NewReceiver(tn.rcvH[i], flow, tn.sndH[i].Addr)
	return s, r
}

func TestSingleFlowSaturatesLink(t *testing.T) {
	for _, alg := range []string{AlgReno, AlgCubic, AlgBBR} {
		t.Run(alg, func(t *testing.T) {
			rate := units.Mbps(25)
			rtt := 16 * time.Millisecond
			bdp := units.BDP(rate, rtt)
			tn := newTestNet(1, rate, 2*bdp, rtt/2)
			s, r := tn.pair(0, alg)
			s.Start()
			tn.eng.Run(sim.At(20 * time.Second))
			// Skip 5 s of startup; measure 15 s of steady state.
			goodput := units.RateFromBytes(units.ByteSize(r.BytesReceived), 20*time.Second)
			if goodput.Mbit() < 20 {
				t.Errorf("%s goodput = %.1f Mb/s on a 25 Mb/s link", alg, goodput.Mbit())
			}
			if goodput.Mbit() > 25.1 {
				t.Errorf("%s goodput = %.1f Mb/s exceeds link rate", alg, goodput.Mbit())
			}
		})
	}
}

func TestReceiverDeliversInOrder(t *testing.T) {
	rate := units.Mbps(10)
	rtt := 20 * time.Millisecond
	tn := newTestNet(1, rate, units.BDP(rate, rtt)/2, rtt/2) // tiny queue: heavy loss
	s, r := tn.pair(0, AlgCubic)
	var delivered int64
	r.OnDeliver = func(n int64) { delivered += n }
	s.Start()
	tn.eng.Run(sim.At(10 * time.Second))
	if delivered != r.BytesReceived {
		t.Errorf("OnDeliver total %d != BytesReceived %d", delivered, r.BytesReceived)
	}
	if r.BytesReceived == 0 {
		t.Fatal("nothing delivered")
	}
	if s.Stats.Retransmits == 0 {
		t.Error("expected retransmissions with a half-BDP queue")
	}
	// Everything acked must have been received: sndUna == rcvNxt
	// eventually (after drain).
	s.StopSending()
	tn.eng.Run(sim.At(15 * time.Second))
	if s.sndUna != r.rcvNxt {
		t.Errorf("sndUna %d != rcvNxt %d after drain", s.sndUna, r.rcvNxt)
	}
}

func TestByteLimitedTransferCompletes(t *testing.T) {
	rate := units.Mbps(10)
	rtt := 20 * time.Millisecond
	tn := newTestNet(1, rate, units.BDP(rate, rtt), rtt/2)
	s, r := tn.pair(0, AlgCubic)
	const total = 5_000_000
	s.SetLimit(total)
	s.Start()
	tn.eng.Run(sim.At(30 * time.Second))
	if r.BytesReceived != total {
		t.Errorf("received %d bytes, want %d", r.BytesReceived, total)
	}
	if s.Stats.BytesAcked != total {
		t.Errorf("acked %d bytes, want %d", s.Stats.BytesAcked, total)
	}
	if s.Inflight() != 0 {
		t.Errorf("inflight %d after completion", s.Inflight())
	}
}

func TestCubicFillsQueueBBRDoesNot(t *testing.T) {
	rate := units.Mbps(25)
	rtt := 16 * time.Millisecond
	bdp := units.BDP(rate, rtt)
	qlimit := 7 * bdp // bloated buffer

	measure := func(alg string) (avgOcc float64) {
		tn := newTestNet(1, rate, qlimit, rtt/2)
		s, _ := tn.pair(0, alg)
		s.Start()
		samples, sum := 0, 0.0
		tick := sim.NewTicker(tn.eng, 50*time.Millisecond, nil)
		_ = tick
		tn.eng.Schedule(5*time.Second, func() {}) // warmup marker
		probe := sim.NewTicker(tn.eng, 50*time.Millisecond, func() {
			if tn.eng.Now() > sim.At(5*time.Second) {
				sum += float64(tn.queue.Bytes())
				samples++
			}
		})
		probe.Start(false)
		tn.eng.Run(sim.At(30 * time.Second))
		return sum / float64(samples)
	}

	cubicOcc := measure(AlgCubic)
	bbrOcc := measure(AlgBBR)
	// Cubic should hold a large standing queue (well above 2 BDP on
	// average given the 7x limit); BBR should keep it near or below 1 BDP.
	if cubicOcc < float64(2*bdp) {
		t.Errorf("Cubic avg queue %.0f B, want > %d (2 BDP) in a bloated buffer", cubicOcc, 2*bdp)
	}
	if bbrOcc > float64(2*bdp) {
		t.Errorf("BBR avg queue %.0f B, want <= %d (2 BDP): inflight cap failed", bbrOcc, 2*bdp)
	}
	if bbrOcc >= cubicOcc {
		t.Errorf("BBR queue %.0f >= Cubic queue %.0f: paper's central contrast lost", bbrOcc, cubicOcc)
	}
}

func TestIntraProtocolFairness(t *testing.T) {
	for _, alg := range []string{AlgCubic, AlgBBR} {
		t.Run(alg, func(t *testing.T) {
			rate := units.Mbps(30)
			rtt := 16 * time.Millisecond
			tn := newTestNet(2, rate, 2*units.BDP(rate, rtt), rtt/2)
			s1, r1 := tn.pair(0, alg)
			s2, r2 := tn.pair(1, alg)
			s1.Start()
			s2.Start()
			tn.eng.Run(sim.At(60 * time.Second))
			g1 := float64(r1.BytesReceived)
			g2 := float64(r2.BytesReceived)
			ratio := g1 / g2
			if ratio < 1 {
				ratio = 1 / ratio
			}
			// Same-protocol flows should converge near equal shares
			// (paper's related work: balanced intra-protocol bitrates).
			if ratio > 1.8 {
				t.Errorf("%s vs %s share ratio %.2f, want < 1.8 (g1=%.0f g2=%.0f)",
					alg, alg, ratio, g1, g2)
			}
		})
	}
}

func TestRTORecovery(t *testing.T) {
	// Break the path entirely for a while: all inflight lost, RTO must
	// fire and the connection must recover when the path heals.
	rate := units.Mbps(10)
	rtt := 20 * time.Millisecond
	tn := newTestNet(1, rate, units.BDP(rate, rtt), rtt/2)
	s, r := tn.pair(0, AlgCubic)

	// Blackhole: swap receiver's handler to drop data between t=2s and 4s.
	rcv := tn.rcvH[0]
	dropping := false
	orig := r
	rcv.Bind(1, packet.HandlerFunc(func(p *packet.Packet) {
		if dropping {
			return
		}
		orig.Handle(p)
	}))
	tn.eng.Schedule(2*time.Second, func() { dropping = true })
	tn.eng.Schedule(4*time.Second, func() { dropping = false })

	s.Start()
	tn.eng.Run(sim.At(10 * time.Second))
	if s.Stats.RTOs == 0 {
		t.Error("no RTO during a 2 s blackhole")
	}
	// Delivery must resume after healing.
	before := r.BytesReceived
	tn.eng.Run(sim.At(12 * time.Second))
	if r.BytesReceived <= before {
		t.Error("connection did not recover after blackhole")
	}
}

func TestBBRReachesProbeBW(t *testing.T) {
	rate := units.Mbps(25)
	rtt := 16 * time.Millisecond
	tn := newTestNet(1, rate, 2*units.BDP(rate, rtt), rtt/2)
	s, _ := tn.pair(0, AlgBBR)
	s.Start()
	tn.eng.Run(sim.At(5 * time.Second))
	b := s.CC().(*BBR)
	if b.State() != "PROBE_BW" {
		t.Errorf("BBR state after 5 s = %s, want PROBE_BW", b.State())
	}
	if est := b.BtlBw().Mbit(); est < 20 || est > 30 {
		t.Errorf("BtlBw estimate %.1f Mb/s, want ~25", est)
	}
	if rt := b.RTProp(); rt <= 0 || rt > 25*time.Millisecond {
		t.Errorf("RTProp %v, want ~16ms", rt)
	}
}

func TestBBRProbeRTTVisited(t *testing.T) {
	// A competing Cubic flow keeps a standing queue, so BBR's min-RTT
	// estimate goes stale and PROBE_RTT must trigger within the 10 s
	// window. (A solo BBR flow can legitimately skip PROBE_RTT: its drain
	// phases re-touch the true minimum.)
	rate := units.Mbps(25)
	rtt := 16 * time.Millisecond
	tn := newTestNet(2, rate, 7*units.BDP(rate, rtt), rtt/2)
	s, _ := tn.pair(0, AlgBBR)
	s2, _ := tn.pair(1, AlgCubic)
	s.Start()
	s2.Start()
	b := s.CC().(*BBR)
	sawProbeRTT := false
	probe := sim.NewTicker(tn.eng, 10*time.Millisecond, func() {
		if b.State() == "PROBE_RTT" {
			sawProbeRTT = true
		}
	})
	probe.Start(false)
	tn.eng.Run(sim.At(25 * time.Second))
	if !sawProbeRTT {
		t.Error("BBR never entered PROBE_RTT in 25 s (min-RTT window is 10 s)")
	}
}

func TestCubicBeatsRenoOnLongFatPipe(t *testing.T) {
	// Sanity: on a high-BDP path with random early losses Cubic should
	// recover its window faster than Reno. Compare goodput on a lossy
	// 100 Mb/s, 40 ms RTT path.
	run := func(alg string) int64 {
		rate := units.Mbps(100)
		rtt := 40 * time.Millisecond
		tn := newTestNet(1, rate, 2*units.BDP(rate, rtt), rtt/2)
		s, r := tn.pair(0, alg)
		s.Start()
		tn.eng.Run(sim.At(60 * time.Second))
		return r.BytesReceived
	}
	cubic := run(AlgCubic)
	reno := run(AlgReno)
	if cubic < reno*95/100 {
		t.Errorf("Cubic (%d B) materially slower than Reno (%d B) on long fat pipe", cubic, reno)
	}
}

func TestStopSendingDrains(t *testing.T) {
	rate := units.Mbps(10)
	rtt := 20 * time.Millisecond
	tn := newTestNet(1, rate, 2*units.BDP(rate, rtt), rtt/2)
	s, _ := tn.pair(0, AlgCubic)
	s.Start()
	tn.eng.Schedule(5*time.Second, s.StopSending)
	tn.eng.Run(sim.At(8 * time.Second))
	if s.Inflight() != 0 {
		t.Errorf("inflight %d two seconds after StopSending", s.Inflight())
	}
	sent := s.Stats.BytesSent
	tn.eng.Run(sim.At(10 * time.Second))
	if s.Stats.BytesSent != sent {
		t.Error("sender transmitted after StopSending and drain")
	}
}

func TestNewUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(\"nope\") did not panic")
		}
	}()
	New("nope")
}

func TestSRTTTracksPathRTT(t *testing.T) {
	rate := units.Mbps(25)
	rtt := 16 * time.Millisecond
	tn := newTestNet(1, rate, units.BDP(rate, rtt)/2, rtt/2)
	s, _ := tn.pair(0, AlgCubic) // a full 0.5×BDP queue adds at most 8 ms
	s.Start()
	tn.eng.Run(sim.At(10 * time.Second))
	if s.SRTT() < rtt || s.SRTT() > rtt+20*time.Millisecond {
		t.Errorf("SRTT = %v, want within [%v, %v+20ms]", s.SRTT(), rtt, rtt)
	}
}

func TestReceiverSACKBlocks(t *testing.T) {
	// Drive the receiver directly with a gap and verify the ACK carries
	// SACK ranges.
	eng := sim.NewEngine(1)
	var ids uint64
	var sentAcks []*packet.Packet
	sndSide := netem.NewHost(eng, 1, packet.HandlerFunc(func(p *packet.Packet) {}), &ids)
	_ = sndSide
	rcvOut := packet.HandlerFunc(func(p *packet.Packet) { sentAcks = append(sentAcks, p) })
	rcv := netem.NewHost(eng, 2, rcvOut, &ids)
	r := NewReceiver(rcv, 1, 1)

	data := func(seq int64, n int) *packet.Packet {
		return &packet.Packet{Flow: 1, Kind: packet.KindData, Seq: seq, Payload: n, Size: n + 54}
	}
	r.Handle(data(0, 1000))    // in order
	r.Handle(data(2000, 1000)) // gap at [1000,2000)
	eng.Run(sim.End)

	if len(sentAcks) == 0 {
		t.Fatal("no ACK generated for out-of-order data")
	}
	last := sentAcks[len(sentAcks)-1]
	if last.Ack != 1000 {
		t.Errorf("cumulative ack = %d, want 1000", last.Ack)
	}
	meta := last.App.(*ackMeta)
	if len(meta.sack) != 1 || meta.sack[0] != [2]int64{2000, 3000} {
		t.Errorf("sack = %v, want [[2000 3000]]", meta.sack)
	}

	// Fill the hole; cumulative ack should jump past the SACKed range.
	sentAcks = nil
	r.Handle(data(1000, 1000))
	eng.Run(sim.End)
	if len(sentAcks) == 0 || sentAcks[len(sentAcks)-1].Ack != 3000 {
		t.Fatalf("hole fill did not advance ack to 3000: %v", sentAcks)
	}
}

func TestReceiverOOOMerging(t *testing.T) {
	eng := sim.NewEngine(1)
	var ids uint64
	out := packet.HandlerFunc(func(p *packet.Packet) {})
	rcv := netem.NewHost(eng, 2, out, &ids)
	r := NewReceiver(rcv, 1, 1)
	data := func(seq int64, n int) *packet.Packet {
		return &packet.Packet{Flow: 1, Kind: packet.KindData, Seq: seq, Payload: n, Size: n + 54}
	}
	// Insert out-of-order in scrambled order with overlap-adjacency.
	r.Handle(data(3000, 1000))
	r.Handle(data(1000, 1000))
	r.Handle(data(2000, 1000))
	if len(r.ooo) != 1 || r.ooo[0] != (span{1000, 4000}) {
		t.Fatalf("ooo = %v, want single span [1000,4000)", r.ooo)
	}
	r.Handle(data(0, 1000))
	if r.rcvNxt != 4000 {
		t.Errorf("rcvNxt = %d, want 4000 after filling the first hole", r.rcvNxt)
	}
	if r.BytesReceived != 4000 {
		t.Errorf("BytesReceived = %d, want 4000", r.BytesReceived)
	}
}

func TestDelayedAckTimer(t *testing.T) {
	eng := sim.NewEngine(1)
	var ids uint64
	var acks []sim.Time
	out := packet.HandlerFunc(func(p *packet.Packet) { acks = append(acks, eng.Now()) })
	rcv := netem.NewHost(eng, 2, out, &ids)
	r := NewReceiver(rcv, 1, 1)
	// A single segment should be acked by the 40 ms delayed-ack timer.
	r.Handle(&packet.Packet{Flow: 1, Kind: packet.KindData, Seq: 0, Payload: 1448, Size: 1502})
	eng.Run(sim.End)
	if len(acks) != 1 || acks[0] != sim.At(delAckTimeout) {
		t.Errorf("acks = %v, want one at 40ms", acks)
	}
}

func TestSecondSegmentAckedImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	var ids uint64
	var acks []sim.Time
	out := packet.HandlerFunc(func(p *packet.Packet) { acks = append(acks, eng.Now()) })
	rcv := netem.NewHost(eng, 2, out, &ids)
	r := NewReceiver(rcv, 1, 1)
	r.Handle(&packet.Packet{Flow: 1, Kind: packet.KindData, Seq: 0, Payload: 1448, Size: 1502})
	r.Handle(&packet.Packet{Flow: 1, Kind: packet.KindData, Seq: 1448, Payload: 1448, Size: 1502})
	if len(acks) != 1 || acks[0] != 0 {
		t.Errorf("acks = %v, want immediate ack of second segment", acks)
	}
	eng.Run(sim.End)
	if len(acks) != 1 {
		t.Errorf("delayed-ack timer fired despite immediate ack: %v", acks)
	}
}

func TestEnqueueDrivesTransfer(t *testing.T) {
	rate := units.Mbps(10)
	rtt := 20 * time.Millisecond
	tn := newTestNet(1, rate, 2*units.BDP(rate, rtt), rtt/2)
	s, r := tn.pair(0, AlgCubic)
	s.SetLimit(1) // bounded source from the start
	s.Start()
	// Three application writes, spaced out.
	for i := 0; i < 3; i++ {
		i := i
		tn.eng.Schedule(time.Duration(i)*2*time.Second, func() { s.Enqueue(500_000) })
	}
	tn.eng.Run(sim.At(20 * time.Second))
	want := int64(1 + 3*500_000)
	if r.BytesReceived != want {
		t.Errorf("received %d, want %d", r.BytesReceived, want)
	}
	if s.Outstanding() != 0 {
		t.Errorf("outstanding %d after drain", s.Outstanding())
	}
}

func TestEnqueueIgnoredOnUnboundedSource(t *testing.T) {
	eng := sim.NewEngine(1)
	var ids uint64
	h := netem.NewHost(eng, 1, packet.HandlerFunc(func(p *packet.Packet) {}), &ids)
	s := NewSender(h, 1, 2, New(AlgReno))
	s.Enqueue(100)
	if s.limit != 0 && s.Outstanding() != 0 {
		// Unbounded senders have no limit; Enqueue is a no-op... unless
		// the sender was never bounded, in which case limit stays 0.
		t.Errorf("Enqueue changed unbounded sender state: limit=%d", s.limit)
	}
}
