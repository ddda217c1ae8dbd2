package experiment

import (
	"fmt"
	"time"

	"repro/internal/dash"
	"repro/internal/gamestream"
	"repro/internal/iperf"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/ping"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Host addresses in the testbed.
const (
	addrGameServer  packet.Addr = 1
	addrIperfServer packet.Addr = 2
	addrGameClient  packet.Addr = 11
	addrIperfClient packet.Addr = 12
)

// Flow identifiers.
const (
	flowGame  packet.FlowID = 1
	flowIperf packet.FlowID = 2
	flowPing  packet.FlowID = 3
)

// impairerSeedTag ("impairer" in ASCII) separates the impairment stage's
// random stream from the engine stream it used to fork from. Deriving it
// straight from the run seed makes the stage's presence invisible to every
// other component's stream — the property the clean-run-equivalence
// invariant checks.
const impairerSeedTag uint64 = 0x696d706169726572

// Queue disciplines for the bottleneck.
const (
	AQMDropTail = "droptail"
	AQMCoDel    = "codel"
	AQMFQCoDel  = "fq_codel"
)

// Condition is one cell of the experimental grid (Table 2).
type Condition struct {
	System gamestream.System
	// CCA is the competing flow's congestion control ("cubic" or "bbr"),
	// or empty for no competing flow.
	CCA       string
	Capacity  units.Rate
	QueueMult float64 // bottleneck queue in multiples of the BDP
	AQM       string  // bottleneck discipline; default drop-tail
	// Impair adds stochastic path impairments at the bottleneck (loss,
	// jitter/reordering, duplication). The zero value is the clean path of
	// the paper's testbed; only scalar fields live here so Condition stays
	// usable as a map key.
	Impair netem.Impairment
}

// String renders the condition compactly, e.g. "stadia/cubic/B25/q2.0x".
// Impairments append their own compact suffix ("…/loss2%+jit3ms") only when
// enabled, so clean-path condition strings — and the run seeds derived from
// them — are unchanged from the unimpaired grid.
func (c Condition) String() string {
	cca := c.CCA
	if cca == "" {
		cca = "solo"
	}
	s := fmt.Sprintf("%s/%s/B%.0f/q%.1fx", c.System, cca, c.Capacity.Mbit(), c.QueueMult)
	if c.Impair.Enabled() {
		s += "/" + c.Impair.String()
	}
	return s
}

// Competitor describes one cross-traffic source sharing the bottleneck
// during the contention phase — the paper's future-work "multiple flows
// and mixtures of flows".
type Competitor struct {
	// Kind selects the traffic model: "iperf" (bulk TCP download),
	// "dash" (HTTP adaptive video over TCP), or "videocall" (small
	// GCC-controlled UDP stream).
	Kind string
	// CCA is the TCP congestion control for iperf/dash competitors.
	CCA string
}

// Competitor kinds.
const (
	CompIperf     = "iperf"
	CompDash      = "dash"
	CompVideoCall = "videocall"
)

// CompetitorTrace is one competitor's delivered bitrate series.
type CompetitorTrace struct {
	Competitor
	Mbps []float64
}

// RunConfig fully specifies one run.
type RunConfig struct {
	Condition
	Timeline metrics.Timeline
	Seed     uint64
	// Competitors, when non-empty, replaces the single Condition.CCA
	// iperf flow with an arbitrary mix of cross-traffic sources.
	Competitors []Competitor
	// Population adds an N-flow population on top of the base scenario:
	// ON/OFF flow slots with heavy-tailed schedules plus optional extra
	// game streams. The zero value leaves the topology unchanged (see
	// docs/SCENARIOS.md).
	Population FlowPopulation
	// Profile, when non-nil, overrides the stock profile for the game
	// system — the hook for ablation studies on controller mechanisms.
	Profile *gamestream.Profile
	// OnPacket, when non-nil, observes every packet the bottleneck router
	// forwards (e.g. a pcap writer tap).
	OnPacket func(at sim.Time, p *packet.Packet)
	// BaseRTT is the no-load round-trip time the paper equalised to
	// 16.5 ms across systems.
	BaseRTT time.Duration
	// Burst is the token-bucket burst (tc tbf burst 1mbit = 125 kB).
	Burst units.ByteSize
	// PingInterval spaces the RTT probes.
	PingInterval time.Duration
	// Probe, when non-nil, attaches the tcp_probe-style instrumentation
	// layer: per-flow CC samplers on every TCP competitor, occupancy and
	// sojourn telemetry on the bottleneck queue, and (capacity permitting)
	// a packet lifecycle event ring. The populated probe comes back on
	// RunResult.Probe.
	Probe *probe.Config
	// Schedule retunes bottleneck elements mid-run (rate steps, delay and
	// loss changes, link flaps) at fixed trace offsets. Steps execute via
	// sim timers, so scheduled runs stay deterministic per seed.
	Schedule []ScheduleStep
	// ForceImpairer constructs the impairment stage even when no static
	// impairment or schedule is configured. An inert impairer is
	// contractually invisible — no events, no RNG draws, no extra delay —
	// and this knob lets differential tests (the clean-run-equivalence
	// invariant) prove it by comparing against a run without the stage.
	ForceImpairer bool
}

// Defaults fills zero fields with the paper's parameters.
func (c RunConfig) Defaults() RunConfig {
	if c.Timeline == (metrics.Timeline{}) {
		c.Timeline = metrics.PaperTimeline
	}
	if c.BaseRTT == 0 {
		c.BaseRTT = 16500 * time.Microsecond
	}
	if c.Burst == 0 {
		c.Burst = 125 * units.KB
	}
	if c.PingInterval == 0 {
		c.PingInterval = 500 * time.Millisecond
	}
	if c.AQM == "" {
		c.AQM = AQMDropTail
	}
	return c
}

// QueueBytes returns the bottleneck queue limit for the condition.
func (c RunConfig) QueueBytes() units.ByteSize {
	bdp := units.BDP(c.Capacity, c.BaseRTT)
	q := units.ByteSize(float64(bdp) * c.QueueMult)
	if q < 2*packet.MTU {
		q = 2 * packet.MTU
	}
	return q
}

// RunResult holds everything a single run contributes to the analysis.
type RunResult struct {
	Cfg RunConfig

	// Bin is the bitrate series resolution (0.5 s).
	Bin time.Duration
	// GameMbps and TCPMbps are downstream on-wire bitrates per bin.
	GameMbps []float64
	TCPMbps  []float64
	// FPSBins is displayed frames per 1-second bin.
	FPSBins []float64
	// RTT samples from the ping probe.
	RTT []ping.Sample
	// GameLoss and TCPLoss are bottleneck loss fractions over the whole
	// trace; windowed values come from the capture-derived bins below.
	GameLossBins []float64 // loss fraction per 0.5 s bin
	TCPLossBins  []float64

	// CompetitorTraces holds per-competitor bitrate series for mixed-
	// traffic runs (TCPMbps is then their aggregate).
	CompetitorTraces []CompetitorTrace

	// Server/client end-state counters.
	FramesSent      int64
	FramesDisplayed int64
	FramesDropped   int64
	NackRetx        int64
	TCPRetransmits  int
	EventsProcessed uint64
	// Engine is the full engine counter snapshot at the end of the run
	// (EventsProcessed is kept alongside for older call sites).
	Engine sim.Stats

	// Probe holds the instrumentation capture when Cfg.Probe was set; nil
	// otherwise. It is not persisted by SaveSweep (export it to CSV/JSONL
	// instead).
	Probe *probe.Probe

	// Impair holds the impairer's end-of-run counters when the run was
	// impaired (static impairment or schedule); zero otherwise.
	Impair netem.ImpairStats

	// Flows holds per-member summaries for flow-population runs (extra
	// game streams first, then slots); nil when no population was
	// configured.
	Flows []FlowStats
	// FlowSummary aggregates cross-flow fairness and starvation metrics
	// over the fairness window; zero when no population was configured.
	FlowSummary FlowSummary
}

// GameSeries returns the game bitrate as a metrics.Series.
func (r *RunResult) GameSeries() metrics.Series {
	return metrics.Series{Bin: r.Bin, V: r.GameMbps}
}

// TCPSeries returns the competing-flow bitrate as a metrics.Series.
func (r *RunResult) TCPSeries() metrics.Series {
	return metrics.Series{Bin: r.Bin, V: r.TCPMbps}
}

// FPSSeries returns displayed frame rate as a 1-second series.
func (r *RunResult) FPSSeries() metrics.Series {
	return metrics.Series{Bin: time.Second, V: r.FPSBins}
}

// RTTBetween returns ping RTTs (ms) observed in [from, to) trace offsets.
func (r *RunResult) RTTBetween(from, to time.Duration) []float64 {
	var out []float64
	for _, s := range r.RTT {
		at := s.At.Duration()
		if at >= from && at < to {
			out = append(out, float64(s.RTT)/float64(time.Millisecond))
		}
	}
	return out
}

// LossBetween returns the mean per-bin loss fraction of the game flow over
// [from, to).
func (r *RunResult) LossBetween(from, to time.Duration) float64 {
	s := metrics.Series{Bin: r.Bin, V: r.GameLossBins}
	return s.MeanBetween(from, to)
}

// Run executes one complete experiment run and returns its result. The run
// is a pure function of cfg (including Seed).
func Run(cfg RunConfig) *RunResult {
	cfg = cfg.Defaults()
	eng := sim.NewEngine(cfg.Seed)
	var ids uint64

	// --- Topology (paper Figure 1) ---
	// Downstream: servers --1G links--> router -> shaper(queue) ->
	// delay(owd) -> client switch -> clients.
	// Upstream: clients -> delay(owd) -> 200M link -> server switch.
	owd := cfg.BaseRTT / 2

	clientSwitch := netem.NewRouter()
	serverSwitch := netem.NewRouter()

	var q netem.Queue
	switch cfg.AQM {
	case AQMDropTail:
		q = netem.NewDropTail(cfg.QueueBytes())
	case AQMCoDel:
		q = netem.NewCoDel(cfg.QueueBytes())
	case AQMFQCoDel:
		q = netem.NewFQCoDel(cfg.QueueBytes())
	default:
		panic("experiment: unknown AQM " + cfg.AQM)
	}

	capture := trace.NewCapture(eng, trace.DefaultBin)
	capture.SetHorizon(cfg.Timeline.TraceEnd)

	// One packet freelist per run: every endpoint allocates through it, the
	// hosts recycle packets after delivery, and the bottleneck drop callback
	// recycles the ones the queue kills. Single-goroutine and deterministic
	// — see docs/ARCHITECTURE.md, "hot path & memory discipline".
	pool := packet.NewPool()

	// The queue invokes its drop callback for every packet it refuses or
	// sheds, so chaining the pool release here covers enqueue-overflow and
	// AQM dequeue drops for all three disciplines.
	q.SetDropCallback(func(p *packet.Packet) {
		capture.OnDrop(p)
		pool.Put(p)
	})

	// Instrumentation: when probing, the drop callback chains into the
	// probe's drop-event recorder and the shaper/delivery taps feed the
	// lifecycle ring. When not probing, every hook stays nil.
	var prb *probe.Probe
	if cfg.Probe != nil {
		prb = probe.New(eng, *cfg.Probe)
		qp := prb.AttachQueue("bottleneck", q)
		q.SetDropCallback(func(p *packet.Packet) {
			capture.OnDrop(p)
			prb.OnDrop(qp, p)
			pool.Put(p)
		})
	}

	downDelay := netem.NewDelay(eng, owd, clientSwitch)
	var deliveredTap packet.Handler = packet.HandlerFunc(func(p *packet.Packet) {
		capture.TapDelivered(p)
		downDelay.Handle(p)
	})
	if prb != nil {
		inner := deliveredTap
		deliveredTap = packet.HandlerFunc(func(p *packet.Packet) {
			prb.Log(probe.EvDeliver, p)
			inner.Handle(p)
		})
	}
	// Impairments sit between the shaper and the delivered tap: a packet the
	// impairer kills was offered to the bottleneck (counted by the router
	// tap) but never delivered, so it shows up as loss in the capture — the
	// same accounting as a queue drop. The impairer exists only when
	// something is configured (or ForceImpairer demands it), and its RNG is
	// derived directly from the run seed rather than forked from the engine
	// stream, so whether the stage is present or not, every other
	// component's random stream is bit-for-bit unchanged.
	var impairer *netem.Impairer
	shaperOut := deliveredTap
	if cfg.Impair.Enabled() || len(cfg.Schedule) > 0 || cfg.ForceImpairer {
		impairer = netem.NewImpairer(eng, cfg.Impair, sim.NewRNG(cfg.Seed^impairerSeedTag), deliveredTap)
		impairer.SetPool(pool)
		if prb != nil {
			ip := prb.AttachDropSource("impairer")
			impairer.SetDropCallback(func(p *packet.Packet) {
				capture.OnDrop(p)
				prb.OnDrop(ip, p)
			})
		} else {
			impairer.SetDropCallback(capture.OnDrop)
		}
		shaperOut = impairer
	}
	shaper := netem.NewShaper(eng, cfg.Capacity, cfg.Burst, q, shaperOut)
	if prb != nil {
		shaper.SetQueueTap(prb.LogTap(probe.EvEnqueue), prb.LogTap(probe.EvDequeue))
	}
	downRouter := netem.NewRouter()
	downRouter.Tap(capture.Tap)
	if cfg.OnPacket != nil {
		downRouter.Tap(func(p *packet.Packet) { cfg.OnPacket(eng.Now(), p) })
	}
	downRouter.Route(addrGameClient, shaper)
	downRouter.Route(addrIperfClient, shaper)

	// Server access links: 1 Gb/s with negligible extra delay.
	gameUplink := netem.NewLink(eng, units.Gbps(1), 50*time.Microsecond, downRouter)
	iperfUplink := netem.NewLink(eng, units.Gbps(1), 50*time.Microsecond, downRouter)

	upLink := netem.NewLink(eng, units.Mbps(200), 0, serverSwitch)
	upDelay := netem.NewDelay(eng, owd, upLink)

	gameServerHost := netem.NewHost(eng, addrGameServer, gameUplink, &ids)
	iperfServerHost := netem.NewHost(eng, addrIperfServer, iperfUplink, &ids)
	gameClientHost := netem.NewHost(eng, addrGameClient, upDelay, &ids)
	iperfClientHost := netem.NewHost(eng, addrIperfClient, upDelay, &ids)
	for _, h := range []*netem.Host{gameServerHost, iperfServerHost, gameClientHost, iperfClientHost} {
		h.SetPool(pool)
	}

	serverSwitch.Route(addrGameServer, gameServerHost)
	serverSwitch.Route(addrIperfServer, iperfServerHost)
	clientSwitch.Route(addrGameClient, gameClientHost)
	clientSwitch.Route(addrIperfClient, iperfClientHost)

	// --- Applications ---
	var profile gamestream.Profile
	if cfg.Profile != nil {
		profile = *cfg.Profile
	} else {
		profile = gamestream.ProfileFor(cfg.System)
	}
	server := gamestream.NewServer(gameServerHost, flowGame, addrGameClient, profile, eng.Rand().Fork())
	client := gamestream.NewClient(gameClientHost, flowGame, addrGameServer, profile)

	fpsBins := []float64{}
	client.OnFrame = func(fr gamestream.FrameResult) {
		if !fr.Displayed {
			return
		}
		bin := int(fr.At.Duration() / time.Second)
		for len(fpsBins) <= bin {
			fpsBins = append(fpsBins, 0)
		}
		fpsBins[bin]++
	}

	// Cross traffic: the paper's single iperf flow, or an arbitrary mix.
	comps := cfg.Competitors
	if len(comps) == 0 && cfg.CCA != "" {
		comps = []Competitor{{Kind: CompIperf, CCA: cfg.CCA}}
	}
	var bulk *iperf.Flow // first iperf competitor, for retransmit stats
	compFlows := make([]packet.FlowID, len(comps))
	for i, comp := range comps {
		flow := flowIperf + packet.FlowID(i*10)
		compFlows[i] = flow
		startAt := sim.At(cfg.Timeline.FlowStart)
		stopAt := sim.At(cfg.Timeline.FlowStop)
		switch comp.Kind {
		case CompIperf:
			f := iperf.New(iperfServerHost, iperfClientHost, flow, comp.CCA, sim.At(trace.DefaultBin))
			f.ScheduleRun(startAt, stopAt)
			if bulk == nil {
				bulk = f
			}
			if prb != nil {
				prb.AttachSender(fmt.Sprintf("iperf-%s-%d", comp.CCA, i), f.Sender)
			}
		case CompDash:
			sess := dash.New(iperfServerHost, iperfClientHost, flow, dash.Config{CCA: comp.CCA})
			eng.ScheduleAt(startAt, sess.Start)
			eng.ScheduleAt(stopAt, sess.Stop)
			if prb != nil {
				prb.AttachSender(fmt.Sprintf("dash-%s-%d", comp.CCA, i), sess.Sender)
			}
		case CompVideoCall:
			vp := gamestream.VideoCallProfile()
			vs := gamestream.NewServer(iperfServerHost, flow, addrIperfClient, vp, eng.Rand().Fork())
			gamestream.NewClient(iperfClientHost, flow, addrIperfServer, vp)
			eng.ScheduleAt(startAt, vs.Start)
			eng.ScheduleAt(stopAt, vs.Stop)
		default:
			panic("experiment: unknown competitor kind " + comp.Kind)
		}
	}

	// N-flow population: slots and extra streams attach to the same four
	// hosts. The RNG fork happens only when a population is configured, so
	// clean runs keep their random streams byte-identical.
	var pop *population
	if cfg.Population.Enabled() {
		pop = buildPopulation(eng, cfg, popHosts{
			gameServer:  gameServerHost,
			gameClient:  gameClientHost,
			iperfServer: iperfServerHost,
			iperfClient: iperfClientHost,
		}, prb, eng.Rand().Fork())
	}

	pinger := ping.NewPinger(gameClientHost, flowPing, addrGameServer, cfg.PingInterval)
	ping.NewResponder(gameServerHost, flowPing)

	// Mid-run condition changes: each step is one sim event retuning its
	// element in place, so a scheduled run is still a pure function of cfg.
	for _, st := range cfg.Schedule {
		st := st
		at := sim.At(st.At)
		switch st.Kind {
		case ScheduleRate:
			eng.ScheduleAt(at, func() { shaper.SetRate(st.Rate) })
		case ScheduleDelay:
			eng.ScheduleAt(at, func() { downDelay.SetDelay(st.Delay) })
		case ScheduleLoss:
			eng.ScheduleAt(at, func() { impairer.SetLossRate(st.LossRate) })
		case ScheduleJitter:
			eng.ScheduleAt(at, func() { impairer.SetJitter(st.Jitter) })
		case ScheduleDown:
			eng.ScheduleAt(at, func() { impairer.SetDown(true) })
		case ScheduleUp:
			eng.ScheduleAt(at, func() { impairer.SetDown(false) })
		default:
			panic("experiment: unknown schedule kind " + st.Kind)
		}
	}

	// --- Procedure ---
	if prb != nil {
		prb.Start()
	}
	server.Start()
	pinger.Start()
	end := sim.At(cfg.Timeline.TraceEnd)
	eng.Run(end)

	// --- Collect ---
	nbins := int(cfg.Timeline.TraceEnd / trace.DefaultBin)
	// TCPMbps aggregates all competitor flows (identical to the single
	// iperf series in the paper's default configuration).
	tcpAgg := make([]float64, nbins)
	var compTraces []CompetitorTrace
	for i, flow := range compFlows {
		series := capture.BitrateSeries(flow, nbins)
		for b, v := range series {
			tcpAgg[b] += v
		}
		compTraces = append(compTraces, CompetitorTrace{Competitor: comps[i], Mbps: series})
	}

	res := &RunResult{
		Cfg:             cfg,
		Bin:             trace.DefaultBin,
		GameMbps:        capture.BitrateSeries(flowGame, nbins),
		TCPMbps:         tcpAgg,
		FPSBins:         fpsBins,
		RTT:             pinger.Samples,
		FramesSent:      server.FramesSent,
		FramesDisplayed: client.FramesDisplayed,
		FramesDropped:   client.FramesDropped,
		NackRetx:        server.Retransmits,
		EventsProcessed: eng.Processed(),
		Engine:          eng.Stats(),
	}
	res.GameLossBins = lossBins(capture, flowGame, nbins)
	res.TCPLossBins = lossBins(capture, flowIperf, nbins)
	res.CompetitorTraces = compTraces
	res.Probe = prb
	if impairer != nil {
		res.Impair = impairer.Snapshot()
	}
	if bulk != nil {
		res.TCPRetransmits = bulk.Sender.Stats.Retransmits
	}
	if pop != nil {
		pop.finish(end)
		res.Flows = pop.stats(capture, end)
		from, to := cfg.Timeline.FairnessWindow()
		res.FlowSummary = pop.summarize(capture, cfg, sim.At(from), sim.At(to))
	}
	return res
}

func lossBins(cap *trace.Capture, flow packet.FlowID, n int) []float64 {
	out := make([]float64, n)
	bin := cap.BinDuration()
	for i := 0; i < n; i++ {
		from := sim.At(time.Duration(i) * bin)
		to := sim.At(time.Duration(i+1) * bin)
		out[i] = cap.LossBetween(flow, from, to)
	}
	return out
}
