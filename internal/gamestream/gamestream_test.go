package gamestream

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// streamNet is a one-session testbed: server -> shaper -> delay -> client,
// with a delay-only reverse path for feedback.
type streamNet struct {
	eng    *sim.Engine
	shaper *netem.Shaper
	queue  *netem.DropTail
	server *Server
	client *Client
	ids    uint64
}

func newStreamNet(sys System, rate units.Rate, qlimit units.ByteSize, owd time.Duration, seed uint64) *streamNet {
	sn := &streamNet{eng: sim.NewEngine(seed)}
	profile := ProfileFor(sys)

	var srvHost, cliHost *netem.Host
	sn.queue = netem.NewDropTail(qlimit)
	fwd := netem.NewDelay(sn.eng, owd, packet.HandlerFunc(func(p *packet.Packet) { cliHost.Handle(p) }))
	sn.shaper = netem.NewShaper(sn.eng, rate, 125000, sn.queue, fwd)
	rev := netem.NewDelay(sn.eng, owd, packet.HandlerFunc(func(p *packet.Packet) { srvHost.Handle(p) }))

	srvHost = netem.NewHost(sn.eng, 1, sn.shaper, &sn.ids)
	cliHost = netem.NewHost(sn.eng, 2, rev, &sn.ids)

	sn.server = NewServer(srvHost, 1, 2, profile, sn.eng.Rand().Fork())
	sn.client = NewClient(cliHost, 1, 1, profile)
	return sn
}

func TestBaselineBitratesMatchTable1(t *testing.T) {
	// Table 1: unconstrained bitrates 27.5 / 24.5 / 23.7 Mb/s.
	want := map[System]float64{Stadia: 27.5, GeForce: 24.5, Luna: 23.7}
	for sys, target := range want {
		t.Run(string(sys), func(t *testing.T) {
			sn := newStreamNet(sys, units.Gbps(1), 10*units.MB, 8250*time.Microsecond, 11)
			sn.server.Start()
			sn.eng.Run(sim.At(30 * time.Second))
			warm := sn.client.BytesRecv
			sn.eng.Run(sim.At(90 * time.Second))
			rate := units.RateFromBytes(units.ByteSize(sn.client.BytesRecv-warm), 60*time.Second)
			if math.Abs(rate.Mbit()-target) > 0.12*target {
				t.Errorf("%s baseline %.1f Mb/s, want ~%.1f", sys, rate.Mbit(), target)
			}
		})
	}
}

func TestBaselineFrameRateNear60(t *testing.T) {
	for _, sys := range Systems {
		t.Run(string(sys), func(t *testing.T) {
			sn := newStreamNet(sys, units.Gbps(1), 10*units.MB, 8250*time.Microsecond, 3)
			sn.server.Start()
			sn.eng.Run(sim.At(10 * time.Second))
			d0 := sn.client.FramesDisplayed
			sn.eng.Run(sim.At(40 * time.Second))
			fps := float64(sn.client.FramesDisplayed-d0) / 30
			if fps < 58 || fps > 61 {
				t.Errorf("%s solo fps = %.1f, want ~60", sys, fps)
			}
		})
	}
}

func TestSoloConstrainedAdaptsWithoutLossStorm(t *testing.T) {
	// Paper: at 15 Mb/s capacity, solo systems do not self-induce
	// congestion — loss near 0 once settled, fps near 60.
	for _, sys := range Systems {
		t.Run(string(sys), func(t *testing.T) {
			rate := units.Mbps(15)
			rtt := 16500 * time.Microsecond
			q := units.BDP(rate, rtt) * 2
			sn := newStreamNet(sys, rate, q, rtt/2, 5)
			sn.server.Start()
			sn.eng.Run(sim.At(60 * time.Second))
			// Measure the second half.
			frag0, drop0 := sn.client.FragmentsRecv, sn.server.FragmentsSent
			disp0 := sn.client.FramesDisplayed
			sn.eng.Run(sim.At(120 * time.Second))
			sent := sn.server.FragmentsSent - drop0
			recv := sn.client.FragmentsRecv - frag0
			lossPct := 100 * float64(sent-recv) / float64(sent)
			if lossPct > 1.0 {
				t.Errorf("%s settled loss %.2f%%, want < 1%% (self-induced congestion)", sys, lossPct)
			}
			fps := float64(sn.client.FramesDisplayed-disp0) / 60
			if fps < 55 {
				t.Errorf("%s solo constrained fps %.1f, want near 60", sys, fps)
			}
			gp := sn.server.EncoderRate().Mbit()
			if gp > 15.1 {
				t.Errorf("%s encoder rate %.1f above capacity 15", sys, gp)
			}
			if gp < 10 {
				t.Errorf("%s encoder rate %.1f: failed to use a 15 Mb/s link", sys, gp)
			}
		})
	}
}

func TestFrameSizesTrackBitrate(t *testing.T) {
	sn := newStreamNet(Luna, units.Gbps(1), 10*units.MB, time.Millisecond, 9)
	sn.server.Start()
	sn.eng.Run(sim.At(20 * time.Second))
	// 23.7 Mb/s at 60 fps is ~49 KB per frame on average.
	bytesPerFrame := float64(sn.server.BytesSent) / float64(sn.server.FramesSent)
	want := 23.7e6 / 8 / 60
	if math.Abs(bytesPerFrame-want) > 0.15*want {
		t.Errorf("bytes/frame = %.0f, want ~%.0f", bytesPerFrame, want)
	}
}

func TestKeyFramesPeriodic(t *testing.T) {
	sn := newStreamNet(Stadia, units.Gbps(1), 10*units.MB, time.Millisecond, 9)
	keyTimes := []sim.Time{}
	sn.client.OnFrame = func(fr FrameResult) {
		if fr.KeyFrame {
			keyTimes = append(keyTimes, fr.At)
		}
	}
	sn.server.Start()
	sn.eng.Run(sim.At(10 * time.Second))
	if len(keyTimes) < 4 || len(keyTimes) > 6 {
		t.Fatalf("%d key frames in 10 s, want ~5", len(keyTimes))
	}
	for i := 1; i < len(keyTimes); i++ {
		gap := keyTimes[i].Sub(keyTimes[i-1])
		if gap < 1900*time.Millisecond || gap > 2100*time.Millisecond {
			t.Errorf("key frame gap %v, want ~2s", gap)
		}
	}
}

func TestFECRecoversLoss(t *testing.T) {
	// Drop exactly one data fragment of each frame before the client;
	// GeForce's 15% FEC must recover every frame, Luna (no FEC) must
	// drop them all.
	run := func(sys System) (displayed, dropped int64) {
		sn := newStreamNet(sys, units.Gbps(1), 10*units.MB, time.Millisecond, 9)
		// Intercept: rebind client host flow handler with a dropper.
		inner := sn.client
		dropIdx := 2
		cliHost := clientHost(sn)
		cliHost.Bind(1, packet.HandlerFunc(func(p *packet.Packet) {
			if m, ok := p.App.(*FrameInfo); ok && !p.Retx && m.Index(p.Seq) == dropIdx && m.Count > dropIdx {
				return // dropped
			}
			inner.Handle(p)
		}))
		sn.server.Start()
		sn.eng.Run(sim.At(10 * time.Second))
		return sn.client.FramesDisplayed, sn.client.FramesDropped
	}
	gfDisp, gfDrop := run(GeForce)
	if gfDrop > gfDisp/20 {
		t.Errorf("GeForce with FEC: %d displayed, %d dropped — FEC not recovering", gfDisp, gfDrop)
	}
	luDisp, luDrop := run(Luna)
	if luDrop < luDisp {
		t.Errorf("Luna without FEC: %d displayed, %d dropped — expected most frames lost", luDisp, luDrop)
	}
}

// clientHost digs the client's host out for interception tests.
func clientHost(sn *streamNet) *netem.Host { return sn.client.host }

func TestNACKRepairsFrames(t *testing.T) {
	// Stadia has only 5% FEC but NACK enabled and a 120 ms deadline on an
	// 2 ms RTT path: dropping two fragments per frame (beyond FEC) must
	// still be repaired by retransmission.
	sn := newStreamNet(Stadia, units.Gbps(1), 10*units.MB, time.Millisecond, 9)
	inner := sn.client
	cliHost := clientHost(sn)
	cliHost.Bind(1, packet.HandlerFunc(func(p *packet.Packet) {
		// Drop 6 data fragments per frame — beyond the 5% FEC budget —
		// so repair must come from NACK retransmission.
		if m, ok := p.App.(*FrameInfo); ok && !p.Retx && m.Index(p.Seq) >= 1 && m.Index(p.Seq) <= 6 && m.Count > 8 {
			return
		}
		inner.Handle(p)
	}))
	sn.server.Start()
	sn.eng.Run(sim.At(10 * time.Second))
	if sn.server.Retransmits == 0 {
		t.Fatal("no NACK retransmissions happened")
	}
	total := sn.client.FramesDisplayed + sn.client.FramesDropped
	if sn.client.FramesDisplayed < total*95/100 {
		t.Errorf("NACK repair: %d/%d frames displayed, want ≥95%%",
			sn.client.FramesDisplayed, total)
	}
}

func TestPlayoutDeadlineDropsLateFrames(t *testing.T) {
	// A severe capacity cut (2 Mb/s for a ~24 Mb/s stream) queues frames
	// past their deadline until the controller adapts; some frames must
	// be dropped as late, and the controller must eventually settle.
	sn := newStreamNet(Luna, units.Mbps(2), 50*units.KB, 8*time.Millisecond, 9)
	sn.server.Start()
	sn.eng.Run(sim.At(30 * time.Second))
	if sn.client.FramesDropped == 0 {
		t.Error("no frames dropped despite a 10x capacity cut")
	}
	if sn.server.EncoderRate().Mbit() > 2.5 {
		t.Errorf("encoder rate %.1f did not adapt down to its floor", sn.server.EncoderRate().Mbit())
	}
}

func TestControllerCongestedFlag(t *testing.T) {
	ctl := NewLossAIMD(LossAIMDConfig{
		Min: units.Mbps(1), Max: units.Mbps(20), Beta: 0.7,
		LossThreshold: 0.004, EventDebounce: 100 * time.Millisecond, GrowthPerSec: 0.02,
	})
	now := sim.At(10 * time.Second)
	if ctl.Congested(now) {
		t.Error("congested before any feedback")
	}
	ctl.OnFeedback(now, &Feedback{Interval: 100 * time.Millisecond, ExpectedPkts: 100, LostPkts: 5})
	if !ctl.Congested(now.Add(time.Second)) {
		t.Error("not congested right after a loss backoff")
	}
	if ctl.Congested(now.Add(10 * time.Second)) {
		t.Error("still congested 10 s after the last backoff")
	}
}

func TestLossAIMDDynamics(t *testing.T) {
	ctl := NewLossAIMD(LossAIMDConfig{
		Min: units.Mbps(1), Max: units.Mbps(20), Beta: 0.7,
		LossThreshold: 0.004, EventDebounce: 400 * time.Millisecond, GrowthPerSec: 0.02,
	})
	start := ctl.Target()
	// Loss event cuts by beta.
	ctl.OnFeedback(sim.At(time.Second), &Feedback{Interval: 100 * time.Millisecond, ExpectedPkts: 100, LostPkts: 2})
	if got := ctl.Target(); got != start.Scale(0.7) {
		t.Errorf("after loss, target = %v, want %v", got, start.Scale(0.7))
	}
	// Debounce: an immediate second loss report does not cut again.
	after := ctl.Target()
	ctl.OnFeedback(sim.At(1100*time.Millisecond), &Feedback{Interval: 100 * time.Millisecond, ExpectedPkts: 100, LostPkts: 2})
	if ctl.Target() != after {
		t.Error("debounced loss event still cut the target")
	}
	// Clean feedback grows multiplicatively.
	ctl.OnFeedback(sim.At(2*time.Second), &Feedback{Interval: time.Second, ExpectedPkts: 100})
	want := after.Scale(1.02)
	if math.Abs(float64(ctl.Target()-want)) > 1000 {
		t.Errorf("growth: target = %v, want ~%v", ctl.Target(), want)
	}
}

func TestDelayGradientBacksOffOnBloat(t *testing.T) {
	ctl := NewDelayGradient(DelayGradientConfig{
		Min: units.Mbps(1), Max: units.Mbps(25), IncreaseFactor: 1.01,
		InitThreshold: 13 * time.Millisecond, MaxThreshold: 65 * time.Millisecond,
		GainUp: 1, GainDown: 0.08,
		Beta: 0.85, LossThreshold: 0.1, HoldAfterBackoff: 500 * time.Millisecond,
	})
	// Establish base OWD of 8ms, then report 100 ms average delay.
	ctl.OnFeedback(sim.At(100*time.Millisecond), &Feedback{
		Interval: 100 * time.Millisecond, OWDMin: 8 * time.Millisecond, OWDAvg: 9 * time.Millisecond,
		RxRate: units.Mbps(24), ExpectedPkts: 100,
	})
	before := ctl.Target()
	ctl.OnFeedback(sim.At(200*time.Millisecond), &Feedback{
		Interval: 100 * time.Millisecond, OWDMin: 90 * time.Millisecond, OWDAvg: 108 * time.Millisecond,
		RxRate: units.Mbps(12), ExpectedPkts: 100,
	})
	if ctl.Target() >= before {
		t.Errorf("no backoff on 100 ms queuing delay: %v -> %v", before, ctl.Target())
	}
	if want := units.Mbps(12).Scale(0.85); ctl.Target() != want {
		t.Errorf("backoff target = %v, want beta*rxRate = %v", ctl.Target(), want)
	}
}

func TestDelayGradientToleratesShallowQueue(t *testing.T) {
	ctl := NewDelayGradient(DelayGradientConfig{
		Min: units.Mbps(1), Max: units.Mbps(25), IncreaseFactor: 1.01,
		InitThreshold: 13 * time.Millisecond, MaxThreshold: 65 * time.Millisecond,
		GainUp: 1, GainDown: 0.08,
		Beta: 0.85, LossThreshold: 0.1, HoldAfterBackoff: 500 * time.Millisecond,
	})
	// Shallow queue: 8 ms of queuing delay and 3% loss — no backoff.
	ctl.OnFeedback(sim.At(100*time.Millisecond), &Feedback{
		Interval: 100 * time.Millisecond, OWDMin: 8 * time.Millisecond, OWDAvg: 9 * time.Millisecond,
		RxRate: units.Mbps(20), ExpectedPkts: 100,
	})
	before := ctl.Target()
	ctl.OnFeedback(sim.At(200*time.Millisecond), &Feedback{
		Interval: 100 * time.Millisecond, OWDMin: 14 * time.Millisecond, OWDAvg: 17 * time.Millisecond,
		RxRate: units.Mbps(20), ExpectedPkts: 100, LostPkts: 3,
	})
	if ctl.Target() < before {
		t.Error("delay-gradient backed off on shallow-queue conditions it should tolerate")
	}
}

func TestConservativeDefers(t *testing.T) {
	ctl := NewConservative(ConservativeConfig{
		Min: units.Mbps(1.5), Max: units.Mbps(24.5), Headroom: 0.8,
		LossThreshold: 0.005, DelayThreshold: 10 * time.Millisecond,
		CleanBeforeRamp: time.Second, RampPerSec: units.Mbps(1),
	})
	// Mild constraint: tiny loss. With no descent slew configured the
	// target must defer to 0.8x receive rate immediately.
	ctl.OnFeedback(sim.At(100*time.Millisecond), &Feedback{
		Interval: 100 * time.Millisecond, RxRate: units.Mbps(12),
		ExpectedPkts: 200, LostPkts: 2,
	})
	if want := units.Mbps(12).Scale(0.8); ctl.Target() != want {
		t.Errorf("constrained target = %v, want %v", ctl.Target(), want)
	}
	// Clean for > CleanBeforeRamp: ramps additively.
	ctl.OnFeedback(sim.At(200*time.Millisecond), &Feedback{Interval: 100 * time.Millisecond, RxRate: units.Mbps(9.6), ExpectedPkts: 200})
	ctl.OnFeedback(sim.At(1300*time.Millisecond), &Feedback{Interval: 1100 * time.Millisecond, RxRate: units.Mbps(9.6), ExpectedPkts: 200})
	low := ctl.Target()
	ctl.OnFeedback(sim.At(2300*time.Millisecond), &Feedback{Interval: time.Second, RxRate: units.Mbps(9.6), ExpectedPkts: 200})
	if ctl.Target() <= low {
		t.Error("conservative controller failed to ramp after a clean period")
	}
}

func TestEncoderFPSLadder(t *testing.T) {
	p := ProfileFor(Luna)
	cases := []struct {
		rate float64
		want int
	}{
		{23, 60}, {8, 60}, {6, 50}, {4, 40}, {2.5, 30}, {1.3, 20},
	}
	for _, c := range cases {
		if got := p.EncoderFPS(units.Mbps(c.rate)); got != c.want {
			t.Errorf("Luna fps at %.1f Mb/s = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestProfileForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ProfileFor(bogus) did not panic")
		}
	}()
	ProfileFor(System("bogus"))
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		sn := newStreamNet(Stadia, units.Mbps(15), 60*units.KB, 8*time.Millisecond, 42)
		sn.server.Start()
		sn.eng.Run(sim.At(20 * time.Second))
		return sn.client.BytesRecv, sn.client.FramesDisplayed
	}
	b1, f1 := run()
	b2, f2 := run()
	if b1 != b2 || f1 != f2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", b1, f1, b2, f2)
	}
}

func TestFeedbackLossFraction(t *testing.T) {
	fb := &Feedback{ExpectedPkts: 200, LostPkts: 5}
	if got := fb.LossFraction(); got != 0.025 {
		t.Errorf("LossFraction = %v, want 0.025", got)
	}
	empty := &Feedback{}
	if empty.LossFraction() != 0 {
		t.Error("empty feedback loss fraction should be 0")
	}
}

func TestVideoCallProfile(t *testing.T) {
	p := VideoCallProfile()
	if p.MaxRate != units.Mbps(3.5) || p.BaseFPS != 30 {
		t.Errorf("videocall profile = %+v", p)
	}
	ctl := p.NewController()
	if ctl.Name() != "delay-gradient" {
		t.Errorf("controller = %s", ctl.Name())
	}
	// Solo on a wide link the call reaches its cap and holds 30 f/s.
	sn := &streamNet{eng: sim.NewEngine(13)}
	var srvHost, cliHost *netem.Host
	sn.queue = netem.NewDropTail(10 * units.MB)
	fwd := netem.NewDelay(sn.eng, 8*time.Millisecond, packet.HandlerFunc(func(pk *packet.Packet) { cliHost.Handle(pk) }))
	sn.shaper = netem.NewShaper(sn.eng, units.Mbps(100), 125000, sn.queue, fwd)
	rev := netem.NewDelay(sn.eng, 8*time.Millisecond, packet.HandlerFunc(func(pk *packet.Packet) { srvHost.Handle(pk) }))
	srvHost = netem.NewHost(sn.eng, 1, sn.shaper, &sn.ids)
	cliHost = netem.NewHost(sn.eng, 2, rev, &sn.ids)
	sn.server = NewServer(srvHost, 1, 2, p, sn.eng.Rand().Fork())
	sn.client = NewClient(cliHost, 1, 1, p)
	sn.server.Start()
	sn.eng.Run(sim.At(30 * time.Second))
	if got := sn.server.EncoderRate().Mbit(); got < 3.3 {
		t.Errorf("call rate %.2f, want near 3.5 cap", got)
	}
	fps := float64(sn.client.FramesDisplayed) / 30
	if fps < 28 || fps > 31 {
		t.Errorf("call fps = %.1f, want ~30", fps)
	}
}

// Property: random fragment arrival orders always reassemble frames the
// client can display (no order dependence in the reassembly path).
func TestFrameReassemblyOrderIndependent(t *testing.T) {
	fq := func(perm []int) bool {
		eng := sim.NewEngine(1)
		var ids uint64
		out := packet.HandlerFunc(func(p *packet.Packet) {})
		host := netem.NewHost(eng, 2, out, &ids)
		profile := ProfileFor(GeForce)
		c := NewClient(host, 1, 1, profile)
		const count = 8
		order := make([]int, count)
		for i := range order {
			order[i] = i
		}
		// Permute deterministically from the random slice.
		for i, p := range perm {
			j := ((p % count) + count) % count
			order[i%count], order[j] = order[j], order[i%count]
		}
		info := &FrameInfo{FrameID: 1, Count: count, Parity: 0, SeqBase: 0}
		for _, idx := range order {
			c.Handle(&packet.Packet{
				Flow: 1, Kind: packet.KindFrame, Seq: int64(idx), Size: 1242, Payload: 1200,
				App: info,
			})
		}
		return c.FramesDisplayed == 1
	}
	if err := quick.Check(fq, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRetxBufferBoundedOverLongRun pins the satellite fix for the old
// unbounded retxBuf growth: the ring evicts descriptors on window slide
// and the tail sweep releases references past the NACK retention horizon,
// so over a 60 s run the live-entry count stays bounded by the fragments
// sent within the last nackRetain (1 s) — nowhere near the ring capacity's
// worth of a whole run's fragments, and the capacity itself never grows.
func TestRetxBufferBoundedOverLongRun(t *testing.T) {
	sn := newStreamNet(Stadia, units.Gbps(1), 10*units.MB, 8250*time.Microsecond, 13)
	sn.server.Start()

	cap0 := sn.server.RetxCap()
	// One second of fragments at the profile's ceiling bounds what the
	// retention horizon can keep alive.
	maxLive := int(ProfileFor(Stadia).MaxRate.BytesPerSec()/FragmentPayload) * 2
	for sec := 1; sec <= 60; sec++ {
		sn.eng.Run(sim.At(time.Duration(sec) * time.Second))
		if live := sn.server.RetxLive(); live > maxLive {
			t.Fatalf("t=%ds: %d live retx entries, want <= %d", sec, live, maxLive)
		}
	}
	if sn.server.RetxCap() != cap0 {
		t.Errorf("retx ring grew: cap %d -> %d", cap0, sn.server.RetxCap())
	}
	if sn.server.FramesSent < 3000 {
		t.Errorf("only %d frames sent in 60s — test exercised too little traffic", sn.server.FramesSent)
	}
}

// TestClientSlotArraysFollowLiveFrames pins the client's spare list: a
// resolved frame's slot keeps no reassembly arrays, and the arrays in
// existence (live slots' plus spares) stay near the live frame count, far
// below the ring size, while the run is still displaying frames.
func TestClientSlotArraysFollowLiveFrames(t *testing.T) {
	sn := newStreamNet(Stadia, units.Mbps(25), 100*units.KB, 8250*time.Microsecond, 5)
	sn.server.Start()
	sn.eng.Run(sim.At(20 * time.Second))
	c := sn.client
	if c.FramesDisplayed < 1000 {
		t.Fatalf("only %d frames displayed in 20s", c.FramesDisplayed)
	}
	held := len(c.spare)
	for i := range c.ring {
		fs := &c.ring[i]
		switch {
		case fs.id >= 0 && fs.resolved && (fs.gotBits != nil || fs.nackAt != nil):
			t.Fatalf("resolved frame %d still holds its arrays", fs.id)
		case fs.id >= 0 && !fs.resolved:
			held++
		}
	}
	if held == 0 || held > clientRingSize/4 {
		t.Errorf("%d array pairs in existence, want between 1 and %d", held, clientRingSize/4)
	}
}
