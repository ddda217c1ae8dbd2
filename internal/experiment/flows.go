package experiment

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/dash"
	"repro/internal/gamestream"
	"repro/internal/iperf"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Flow identifier bases for population slots and extra game streams. They
// sit far above the legacy competitor IDs (flowIperf + 10·i), so existing
// mixed-traffic runs keep their exact flow numbering. Extra streams take
// 600..999, which caps Streams at maxPopulationStreams.
const (
	popFlowBase    packet.FlowID = 1000
	streamFlowBase packet.FlowID = 600
)

// paretoShapeDefault is the tail index of slot ON durations. 1.5 is the
// classic heavy-tailed traffic value: finite mean, infinite variance, so a
// few long-lived "elephant" arrivals coexist with many short ones.
const paretoShapeDefault = 1.5

// starvedShareFrac marks a flow as starved when its fairness-window
// throughput falls below this fraction of the equal share.
const starvedShareFrac = 0.05

// FlowPopulation describes an N-flow bottleneck scenario: M competing flow
// slots cycling through ON/OFF periods with heavy-tailed ON durations, plus
// K additional always-on game streams next to the primary one. The zero
// value disables the population entirely, leaving the classic 1-vs-1 (or
// explicit Competitors mix) topology untouched.
//
// Each slot is a persistent set of endpoints reused across arrivals — the
// flyweight per-flow state story: a new "arrival" resets the slot's TCP
// connection in place (tcp.Sender.Reset / tcp.Receiver.ResetAt) instead of
// allocating new senders, scoreboards, and timers, so a 500-flow run costs
// 500 slot setups once, not one setup per arrival, and steady-state allocs
// stay independent of both flow count and packet count.
//
// All arrival/departure times are drawn up front from a single RNG fork
// taken only when the population is enabled, so clean runs keep their
// random streams — and therefore their runlogs — byte-identical.
type FlowPopulation struct {
	// Flows is the number of competing flow slots (M).
	Flows int
	// Streams is the number of additional concurrent game streams beyond
	// the primary (K-1 in the K-streams reading).
	Streams int
	// Mix lists the slot traffic models, cycled across slots. Empty means
	// every slot is an iperf bulk flow using the Condition's CCA (or cubic
	// when the condition is solo).
	Mix []Competitor
	// MeanOn is the mean ON (active) duration per arrival; ON durations
	// are Pareto with shape Shape. Zero defaults to a sixth of the
	// contention window, which scales with compressed timelines.
	MeanOn time.Duration
	// MeanOff is the mean OFF (idle) gap between a slot's departures and
	// its next arrival; OFF gaps are exponential. Zero defaults to half of
	// MeanOn.
	MeanOff time.Duration
	// Shape is the Pareto tail index for ON durations (>1 for a finite
	// mean); zero defaults to 1.5.
	Shape float64
}

// Enabled reports whether the population changes the topology at all.
func (p FlowPopulation) Enabled() bool { return p.Flows > 0 || p.Streams > 0 }

// Bounds every front end holds a population to.
const (
	maxPopulationFlows   = 100000                            // Flows
	maxPopulationStreams = int(popFlowBase - streamFlowBase) // Streams
	maxPopulationMean    = 24 * time.Hour                    // MeanOn and MeanOff
)

// Validate reports the first field outside its bounds, naming it by its
// scenario-file key, e.g. "flows -3 outside [0,100000]". Shape is not
// checked: any value up to 1 selects the default tail index.
func (p FlowPopulation) Validate() error {
	for _, c := range []struct {
		key    string
		n, max int
	}{{"flows", p.Flows, maxPopulationFlows}, {"streams", p.Streams, maxPopulationStreams}} {
		if c.n < 0 || c.n > c.max {
			return fmt.Errorf("%s %d outside [0,%d]", c.key, c.n, c.max)
		}
	}
	for _, c := range []struct {
		key string
		d   time.Duration
	}{{"mean_on", p.MeanOn}, {"mean_off", p.MeanOff}} {
		if c.d < 0 || c.d > maxPopulationMean {
			return fmt.Errorf("%s %s outside [0,24h]", c.key, c.d)
		}
	}
	return nil
}

// ParseMix parses a comma-separated population mix spec into competitors.
// Each entry is kind[:cca] with kind one of iperf, dash, videocall — e.g.
// "iperf:cubic,iperf:bbr,dash,videocall". TCP kinds default to cubic.
func ParseMix(spec string) ([]Competitor, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var mix []Competitor
	for _, entry := range strings.Split(spec, ",") {
		kind, cca, _ := strings.Cut(strings.TrimSpace(entry), ":")
		switch kind {
		case CompIperf, CompDash:
			if cca == "" {
				cca = "cubic"
			}
		case CompVideoCall:
			if cca != "" {
				return nil, fmt.Errorf("experiment: mix entry %q: videocall takes no CCA", entry)
			}
		default:
			return nil, fmt.Errorf("experiment: mix entry %q: unknown kind (want iperf, dash, or videocall)", entry)
		}
		mix = append(mix, Competitor{Kind: kind, CCA: cca})
	}
	return mix, nil
}

// withDefaults resolves zero fields against the contention window span.
func (p FlowPopulation) withDefaults(span time.Duration) FlowPopulation {
	if p.MeanOn <= 0 {
		p.MeanOn = span / 6
	}
	if p.MeanOff <= 0 {
		p.MeanOff = p.MeanOn / 2
	}
	if p.Shape <= 1 {
		p.Shape = paretoShapeDefault
	}
	return p
}

// String renders the population compactly for logs and tables, e.g.
// "flows=32(iperf:cubic)/streams=2/on=30s/off=15s/a=1.5". The zero value
// renders as "none".
func (p FlowPopulation) String() string {
	if !p.Enabled() {
		return "none"
	}
	s := fmt.Sprintf("flows=%d", p.Flows)
	if len(p.Mix) > 0 {
		s += "("
		for i, m := range p.Mix {
			if i > 0 {
				s += ","
			}
			s += m.Kind
			if m.CCA != "" {
				s += ":" + m.CCA
			}
		}
		s += ")"
	}
	if p.Streams > 0 {
		s += fmt.Sprintf("/streams=%d", p.Streams)
	}
	if p.MeanOn > 0 {
		s += fmt.Sprintf("/on=%s", p.MeanOn)
	}
	if p.MeanOff > 0 {
		s += fmt.Sprintf("/off=%s", p.MeanOff)
	}
	if p.Shape > 0 {
		s += fmt.Sprintf("/a=%.2g", p.Shape)
	}
	return s
}

// FlowStats is one population member's end-of-run summary.
type FlowStats struct {
	// Kind is "iperf", "dash", "videocall", or "stream" (extra game
	// stream).
	Kind string
	// CCA is the TCP congestion control for iperf/dash slots.
	CCA string
	// Flow is the slot's FlowID.
	Flow int
	// Arrivals counts ON transitions.
	Arrivals int
	// ActiveSec is the cumulative ON time in seconds.
	ActiveSec float64
	// MeanMbps is delivered throughput averaged over the active time.
	MeanMbps float64
	// SRTTms is the last smoothed RTT observed at a departure (or run
	// end), milliseconds; 0 for non-TCP slots.
	SRTTms float64
}

// FlowSummary aggregates cross-flow fairness and starvation metrics over
// the paper's fairness window.
type FlowSummary struct {
	// Flows and Streams echo the population configuration (Streams counts
	// the primary game stream too).
	Flows   int
	Streams int
	// Active is the number of flows included in the fairness accounting:
	// the game streams plus every slot that delivered bytes inside the
	// fairness window.
	Active int
	// Jain is Jain's fairness index over the included flows' window
	// throughputs (1 = perfectly equal shares).
	Jain float64
	// TputP10/P50/P90Mbps are per-flow window-throughput quantiles.
	TputP10Mbps float64
	TputP50Mbps float64
	TputP90Mbps float64
	// RTTInflP10/P50/P90 are smoothed-RTT inflation quantiles over TCP
	// slots (SRTT divided by the configured base RTT; 1.0 = no queueing).
	RTTInflP10 float64
	RTTInflP50 float64
	RTTInflP90 float64
	// Starved counts included flows whose window throughput fell below
	// 5% of the equal share.
	Starved int
}

// popSlot is one competing-flow slot: endpoints built once, reused across
// every arrival.
type popSlot struct {
	kind string
	cca  string
	flow packet.FlowID
	eng  *sim.Engine

	bulk *iperf.Flow
	sess *dash.Session
	vsrv *gamestream.Server

	on       bool
	lastOn   sim.Time
	active   time.Duration
	arrivals int
	srttMS   float64
}

// popToggle is the schedule lane's callback. A slot's arrivals and
// departures strictly alternate, so each item the lane delivers flips its
// slot: an arrival when it is idle, a departure when it is on.
func popToggle(a any) {
	sl := a.(*popSlot)
	if sl.on {
		sl.stop(sl.eng.Now())
	} else {
		sl.start(sl.eng.Now())
	}
}

// popEvent is one drawn arrival or departure of a slot.
type popEvent struct {
	at sim.Time
	sl *popSlot
}

// start activates the slot (an arrival).
func (sl *popSlot) start(now sim.Time) {
	sl.on = true
	sl.lastOn = now
	sl.arrivals++
	switch {
	case sl.bulk != nil:
		sl.bulk.Restart(sl.cca)
	case sl.sess != nil:
		sl.sess.Start()
	case sl.vsrv != nil:
		sl.vsrv.Start()
	}
}

// stop idles the slot (a departure), sampling the TCP RTT estimator before
// it is reset by the next arrival.
func (sl *popSlot) stop(now sim.Time) {
	sl.on = false
	sl.active += now.Sub(sl.lastOn)
	switch {
	case sl.bulk != nil:
		sl.bulk.Stop()
		sl.sampleSRTT(sl.bulk.Sender.SRTT())
	case sl.sess != nil:
		sl.sess.Stop()
		sl.sampleSRTT(sl.sess.Sender.SRTT())
	case sl.vsrv != nil:
		sl.vsrv.Stop()
	}
}

func (sl *popSlot) sampleSRTT(srtt time.Duration) {
	if srtt > 0 {
		sl.srttMS = float64(srtt) / float64(time.Millisecond)
	}
}

// population is the run-time state of a flow population inside one run.
type population struct {
	cfg     FlowPopulation
	slots   []*popSlot
	streams []packet.FlowID // extra game-stream flow IDs
	// sched delivers every slot's arrivals and departures in time order:
	// one heap key for the whole schedule, however many are to come.
	sched sim.Lane

	// slotStore and bulkStore are the bulk backing arrays the slot
	// pointers index into; binStore backs every iperf slot's goodput
	// bins. One allocation each, however many flows the population has.
	slotStore []popSlot
	bulkStore []iperf.Flow
	binStore  []int64
	// segPool/ackPool are the shared TCP freelists across all iperf
	// slots: records in circulation scale with concurrent in-flight
	// data, not with slot count.
	segPool tcp.SegPool
	ackPool tcp.AckPool
}

// popHosts carries the four endpoint hosts a population attaches to.
type popHosts struct {
	gameServer, gameClient   *netem.Host
	iperfServer, iperfClient *netem.Host
}

// buildPopulation wires the population into the topology and queues every
// arrival and departure up front on one lane. rng must be a dedicated fork
// taken only for the population. Extra game streams run for the whole
// trace; slots churn inside [FlowStart, FlowStop].
func buildPopulation(eng *sim.Engine, cfg RunConfig, hosts popHosts, prb *probe.Probe, rng *sim.RNG) *population {
	winStart := sim.At(cfg.Timeline.FlowStart)
	winStop := sim.At(cfg.Timeline.FlowStop)
	span := cfg.Timeline.FlowStop - cfg.Timeline.FlowStart
	pcfg := cfg.Population.withDefaults(span)

	pop := &population{cfg: pcfg}

	// Extra always-on game streams share the game hosts; the primary
	// stream keeps flowGame and remains the one measured by GameMbps.
	for j := 0; j < pcfg.Streams; j++ {
		flow := streamFlowBase + packet.FlowID(j)
		var profile gamestream.Profile
		if cfg.Profile != nil {
			profile = *cfg.Profile
		} else {
			profile = gamestream.ProfileFor(cfg.System)
		}
		srv := gamestream.NewServer(hosts.gameServer, flow, addrGameClient, profile, rng.Fork())
		gamestream.NewClient(hosts.gameClient, flow, addrGameServer, profile)
		srv.Start()
		pop.streams = append(pop.streams, flow)
	}

	// Slot endpoints: one persistent set per slot, kinds cycled from the
	// mix. Slots are built in slot order and scheduled in slot order, so
	// the whole construction is a deterministic function of (cfg, seed).
	mix := pcfg.Mix
	if len(mix) == 0 {
		cca := cfg.CCA
		if cca == "" {
			cca = "cubic"
		}
		mix = []Competitor{{Kind: CompIperf, CCA: cca}}
	}
	// Slots, iperf endpoints, and goodput bins live in bulk arrays sized
	// up front: a 500-flow population costs a handful of allocations, not
	// a handful per slot. Slot pointers into slotStore are stable because
	// the array never grows.
	nIperf := 0
	for i := 0; i < pcfg.Flows; i++ {
		if mix[i%len(mix)].Kind == CompIperf {
			nIperf++
		}
	}
	pop.slotStore = make([]popSlot, pcfg.Flows)
	pop.bulkStore = make([]iperf.Flow, nIperf)
	binDur := sim.At(trace.DefaultBin)
	// Bins cover the whole trace, not just the contention window: flows
	// stop sending at FlowStop but in-flight data keeps delivering while
	// it drains, and a too-short carve would spill every late bin to the
	// heap.
	binsPer := int(sim.At(cfg.Timeline.TraceEnd)/binDur) + 2
	if nIperf > 0 {
		pop.binStore = make([]int64, nIperf*binsPer)
	}
	pop.slots = make([]*popSlot, 0, pcfg.Flows)
	// Presize the drawn schedule for about span/(on+off)+1 cycles per
	// slot, capped so tiny means cannot reserve a huge array up front.
	cycles := 1
	if c := pcfg.MeanOn + pcfg.MeanOff; c > 0 {
		cycles += int(min(span/c, 1<<16))
	}
	sched := make([]popEvent, 0, min(2*pcfg.Flows*cycles, 1<<16))

	// Controllers for iperf slots come from per-algorithm bulk arrays,
	// consumed in slot order.
	ccCount := make(map[string]int)
	for i := 0; i < pcfg.Flows; i++ {
		if m := mix[i%len(mix)]; m.Kind == CompIperf {
			ccCount[m.CCA]++
		}
	}
	ccByAlg := make(map[string][]tcp.CongestionControl, len(ccCount))
	for alg, n := range ccCount {
		ccByAlg[alg] = tcp.NewBulk(alg, n)
	}

	nextBulk := 0
	for i := 0; i < pcfg.Flows; i++ {
		m := mix[i%len(mix)]
		sl := &pop.slotStore[i]
		sl.kind, sl.cca, sl.flow, sl.eng = m.Kind, m.CCA, popFlowBase+packet.FlowID(i), eng
		switch m.Kind {
		case CompIperf:
			sl.bulk = &pop.bulkStore[nextBulk]
			ccs := ccByAlg[m.CCA]
			sl.bulk.InitWithCC(hosts.iperfServer, hosts.iperfClient, sl.flow, ccs[0], binDur)
			ccByAlg[m.CCA] = ccs[1:]
			sl.bulk.ShareSegPool(&pop.segPool, &pop.ackPool)
			// Carve this slot's bin capacity out of the bulk store; the
			// three-index slice pins cap so a (theoretical) overflow
			// spills to a fresh array instead of a neighbour's bins.
			sl.bulk.SetBinStore(pop.binStore[nextBulk*binsPer : nextBulk*binsPer : (nextBulk+1)*binsPer])
			nextBulk++
			if prb != nil {
				prb.AttachSender(fmt.Sprintf("pop-iperf-%s-%d", m.CCA, i), sl.bulk.Sender)
			}
		case CompDash:
			sl.sess = dash.New(hosts.iperfServer, hosts.iperfClient, sl.flow, m.CCA)
		case CompVideoCall:
			vp := gamestream.VideoCallProfile()
			sl.vsrv = gamestream.NewServer(hosts.iperfServer, sl.flow, addrIperfClient, vp, rng.Fork())
			gamestream.NewClient(hosts.iperfClient, sl.flow, addrIperfServer, vp)
		default:
			panic("experiment: unknown population kind " + m.Kind)
		}
		pop.slots = append(pop.slots, sl)

		// Draw the slot's full ON/OFF schedule now. Phases are staggered
		// by a uniform initial offset so the population doesn't arrive in
		// lockstep at FlowStart.
		t := winStart.Add(time.Duration(rng.Float64() * float64(pcfg.MeanOn+pcfg.MeanOff)))
		for t < winStop {
			onDur := paretoDuration(rng, pcfg.MeanOn, pcfg.Shape)
			end := t.Add(onDur)
			if end > winStop {
				end = winStop
			}
			sched = append(sched, popEvent{t, sl}, popEvent{end, sl})
			off := time.Duration(rng.Exp(pcfg.MeanOff.Seconds()) * float64(time.Second))
			t = end.Add(off)
		}
	}

	// Queue the schedule on the lane in time order. The stable sort keeps
	// equal times in drawing order (slot order, and a departure before the
	// same slot's arrival at that instant), and the lane numbers the items
	// in sorted order from one block of sequence numbers, so items at one
	// instant dispatch in drawing order, as when each was scheduled on the
	// engine as it was drawn. Only the videocall clients' first feedback
	// ticks, armed while the slots are built, now take their numbers
	// before the block instead of inside it; they could only reorder
	// against an item at the same nanosecond.
	slices.SortStableFunc(sched, func(a, b popEvent) int { return cmp.Compare(a.at, b.at) })
	pop.sched.Init(eng, popToggle)
	pop.sched.Reserve(len(sched))
	for _, ev := range sched {
		pop.sched.ScheduleAt(ev.at, ev.sl)
	}
	return pop
}

// paretoDuration draws a Pareto-distributed duration with the given mean
// and tail index: X = xm · U^(−1/α) with xm = mean·(α−1)/α. The draw is
// capped at 20× the mean so one arrival cannot swallow an entire long
// campaign window (the fairness window still sees plenty of churn).
func paretoDuration(rng *sim.RNG, mean time.Duration, shape float64) time.Duration {
	xm := float64(mean) * (shape - 1) / shape
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	d := xm * math.Pow(1/u, 1/shape)
	if max := 20 * float64(mean); d > max {
		d = max
	}
	return time.Duration(d)
}

// finish closes the activity accounting at run end, sampling RTT from
// slots still active.
func (pop *population) finish(end sim.Time) {
	for _, sl := range pop.slots {
		if sl.on {
			sl.active += end.Sub(sl.lastOn)
			sl.on = false
			switch {
			case sl.bulk != nil:
				sl.sampleSRTT(sl.bulk.Sender.SRTT())
			case sl.sess != nil:
				sl.sampleSRTT(sl.sess.Sender.SRTT())
			}
		}
	}
}

// stats produces the per-member summaries from the bottleneck capture.
// end is the trace end, normalising the always-on streams' means.
func (pop *population) stats(capture *trace.Capture, end sim.Time) []FlowStats {
	endSec := end.Duration().Seconds()
	out := make([]FlowStats, 0, len(pop.slots)+len(pop.streams))
	for _, flow := range pop.streams {
		ft := capture.Flow(flow)
		fs := FlowStats{Kind: "stream", Flow: int(flow), Arrivals: 1, ActiveSec: endSec}
		if endSec > 0 {
			fs.MeanMbps = float64(ft.Delivered) * 8 / endSec / 1e6
		}
		out = append(out, fs)
	}
	for _, sl := range pop.slots {
		ft := capture.Flow(sl.flow)
		fs := FlowStats{
			Kind:      sl.kind,
			CCA:       sl.cca,
			Flow:      int(sl.flow),
			Arrivals:  sl.arrivals,
			ActiveSec: sl.active.Seconds(),
			SRTTms:    sl.srttMS,
		}
		if fs.ActiveSec > 0 {
			fs.MeanMbps = float64(ft.Delivered) * 8 / fs.ActiveSec / 1e6
		}
		out = append(out, fs)
	}
	return out
}

// summarize computes the cross-flow fairness metrics over the fairness
// window [from, to). Game streams (primary plus extras) always count;
// slots count when they delivered bytes inside the window. trace duration
// normalisation is uniform, so an ON/OFF slot's low window average is the
// starvation signal, not an artefact.
func (pop *population) summarize(capture *trace.Capture, cfg RunConfig, from, to sim.Time) FlowSummary {
	sum := FlowSummary{Flows: pop.cfg.Flows, Streams: pop.cfg.Streams + 1}

	var tputs []float64
	add := func(flow packet.FlowID, always bool) {
		mbps := float64(capture.RateBetween(flow, from, to)) / 1e6
		if always || mbps > 0 {
			tputs = append(tputs, mbps)
		}
	}
	add(flowGame, true)
	for _, flow := range pop.streams {
		add(flow, true)
	}
	for _, sl := range pop.slots {
		add(sl.flow, false)
	}
	sum.Active = len(tputs)
	sum.Jain = metrics.JainIndex(tputs)
	tq := stats.Percentiles(tputs, 0.10, 0.50, 0.90)
	sum.TputP10Mbps, sum.TputP50Mbps, sum.TputP90Mbps = tq[0], tq[1], tq[2]

	fair := cfg.Capacity.Mbit() / float64(len(tputs))
	for _, v := range tputs {
		if v < fair*starvedShareFrac {
			sum.Starved++
		}
	}

	baseMS := float64(cfg.BaseRTT) / float64(time.Millisecond)
	var infl []float64
	for _, sl := range pop.slots {
		if sl.srttMS > 0 && baseMS > 0 {
			infl = append(infl, sl.srttMS/baseMS)
		}
	}
	if len(infl) > 0 {
		iq := stats.Percentiles(infl, 0.10, 0.50, 0.90)
		sum.RTTInflP10, sum.RTTInflP50, sum.RTTInflP90 = iq[0], iq[1], iq[2]
	}
	return sum
}
