package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/units"
)

func TestParseMix(t *testing.T) {
	mix, err := ParseMix(" iperf:bbr, dash ,videocall")
	if err != nil {
		t.Fatal(err)
	}
	want := []Competitor{
		{Kind: CompIperf, CCA: "bbr"},
		{Kind: CompDash, CCA: "cubic"},
		{Kind: CompVideoCall},
	}
	if len(mix) != len(want) {
		t.Fatalf("got %d entries, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, mix[i], want[i])
		}
	}
	if m, err := ParseMix("  "); err != nil || m != nil {
		t.Errorf("blank spec: got %v, %v; want nil, nil", m, err)
	}
	for _, bad := range []string{"torrent", "videocall:cubic", "iperf,"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted an invalid spec", bad)
		}
	}
}

func TestFlowPopulationString(t *testing.T) {
	if s := (FlowPopulation{}).String(); s != "none" {
		t.Errorf("zero population renders %q, want none", s)
	}
	p := FlowPopulation{
		Flows: 32, Streams: 2,
		Mix:    []Competitor{{Kind: CompIperf, CCA: "cubic"}, {Kind: CompVideoCall}},
		MeanOn: 30 * time.Second, MeanOff: 15 * time.Second, Shape: 1.5,
	}
	want := "flows=32(iperf:cubic,videocall)/streams=2/on=30s/off=15s/a=1.5"
	if s := p.String(); s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

// TestJainIndexHandComputed pins the fairness index the flow summary is
// built on against hand-computed cases: (Σx)² / (n·Σx²).
func TestJainIndexHandComputed(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1},        // equal shares
		{[]float64{1, 0, 0, 0}, 0.25},     // total starvation: 1/n
		{[]float64{2, 4}, 0.9},            // 36 / (2·20)
		{[]float64{5}, 1},                 // single flow is trivially fair
		{[]float64{1, 2, 3}, 36.0 / 42.0}, // 36 / (3·14)
	}
	for _, c := range cases {
		if got := metrics.JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// popRun is the small populated run the behaviour tests execute.
func popRun(flows, streams int, seed uint64) *RunResult {
	return Run(RunConfig{
		Condition: Condition{
			System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
		},
		Population: FlowPopulation{Flows: flows, Streams: streams},
		Timeline:   metrics.PaperTimeline.Scale(0.05),
		Seed:       seed,
	})
}

// TestPopulationProducesActivity checks the scheduler actually delivers
// traffic: slots arrive at least once, active time accumulates inside the
// contention window, and the summary includes the game streams.
func TestPopulationProducesActivity(t *testing.T) {
	r := popRun(8, 1, 42)
	if len(r.Flows) != 9 { // 1 extra stream + 8 slots
		t.Fatalf("got %d flow stats, want 9", len(r.Flows))
	}
	span := (r.Cfg.Timeline.FlowStop - r.Cfg.Timeline.FlowStart).Seconds()
	arrivals, active := 0, 0.0
	for _, fs := range r.Flows {
		if fs.Kind == "stream" {
			if fs.MeanMbps <= 0 {
				t.Errorf("extra stream %d delivered nothing", fs.Flow)
			}
			continue
		}
		arrivals += fs.Arrivals
		active += fs.ActiveSec
		if fs.ActiveSec > span+1e-9 {
			t.Errorf("flow %d active %.1fs exceeds the %.1fs window", fs.Flow, fs.ActiveSec, span)
		}
	}
	if arrivals < 8 {
		t.Errorf("only %d arrivals across 8 slots; scheduler barely ran", arrivals)
	}
	if active == 0 {
		t.Error("no slot accumulated active time")
	}
	sum := r.FlowSummary
	if sum.Streams != 2 || sum.Flows != 8 {
		t.Errorf("summary config echo wrong: %+v", sum)
	}
	if sum.Active < 2 {
		t.Errorf("summary includes %d flows, want at least the two game streams", sum.Active)
	}
	if sum.Jain <= 0 || sum.Jain > 1 {
		t.Errorf("Jain index %v out of (0, 1]", sum.Jain)
	}
	if sum.TputP90Mbps < sum.TputP50Mbps || sum.TputP50Mbps < sum.TputP10Mbps {
		t.Errorf("throughput quantiles not ordered: %+v", sum)
	}
	// With unequal shares (Jain well below 1) the quantiles must actually
	// spread — guards against passing a percentage where Percentile wants
	// a 0..1 fraction, which silently returns the max for every quantile.
	if sum.Jain < 0.9 && !(sum.TputP10Mbps < sum.TputP90Mbps) {
		t.Errorf("unequal shares (jain %.3f) but p10 == p90 == %v", sum.Jain, sum.TputP90Mbps)
	}
}

// TestPopulationCountsInTCPMbps checks that a populated run's competing
// bitrate carries the population: the bits in TCPMbps are the bulk
// competitor's trace plus every slot's delivered bits.
func TestPopulationCountsInTCPMbps(t *testing.T) {
	r := popRun(8, 1, 42)
	sec := r.Bin.Seconds()
	var tcp, comp, slots float64
	for _, v := range r.TCPMbps {
		tcp += v * sec
	}
	for _, v := range r.CompetitorTraces[0].Mbps {
		comp += v * sec
	}
	for _, fs := range r.Flows {
		if fs.Kind != "stream" {
			slots += fs.MeanMbps * fs.ActiveSec
		}
	}
	if slots <= 0 {
		t.Fatal("the population delivered nothing")
	}
	if got := tcp - comp; math.Abs(got-slots) > 1e-6*slots {
		t.Errorf("TCPMbps carries %.3f Mbit beyond the bulk flow, the slots delivered %.3f", got, slots)
	}
}

// TestPopulationDeterministicSchedule checks the arrival/departure sequence
// is a pure function of the seed: same seed → identical per-flow stats,
// different seed → a different schedule.
func TestPopulationDeterministicSchedule(t *testing.T) {
	a, b := popRun(8, 1, 42), popRun(8, 1, 42)
	if a.Engine.EventsDispatched != b.Engine.EventsDispatched {
		t.Errorf("events diverged: %d vs %d", a.Engine.EventsDispatched, b.Engine.EventsDispatched)
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Errorf("flow %d stats diverged: %+v vs %+v", i, a.Flows[i], b.Flows[i])
		}
	}
	if a.FlowSummary != b.FlowSummary {
		t.Errorf("summaries diverged: %+v vs %+v", a.FlowSummary, b.FlowSummary)
	}
	c := popRun(8, 1, 43)
	same := true
	for i := range a.Flows {
		if a.Flows[i] != c.Flows[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical per-flow stats")
	}
}

// TestPopulationCleanRunUnchanged is the no-regression guard for the
// population RNG fork: enabling a population must not perturb the random
// streams of a clean run with the same seed.
func TestPopulationCleanRunUnchanged(t *testing.T) {
	clean1 := popRun(0, 0, 42)
	_ = popRun(8, 1, 42) // interleave a populated run; it must not matter
	clean2 := popRun(0, 0, 42)
	if clean1.Engine.EventsDispatched != clean2.Engine.EventsDispatched {
		t.Fatalf("clean runs diverged: %d vs %d events", clean1.Engine.EventsDispatched, clean2.Engine.EventsDispatched)
	}
	for i := range clean1.GameMbps {
		if clean1.GameMbps[i] != clean2.GameMbps[i] {
			t.Fatalf("bin %d: %v vs %v", i, clean1.GameMbps[i], clean2.GameMbps[i])
		}
	}
	if clean1.Flows != nil || clean1.FlowSummary != (FlowSummary{}) {
		t.Error("clean run carries population results")
	}
}

// TestPopulationGoldenDigest pins a mixed population run to a checked-in
// SHA-256 of its run record (wall fields zeroed), per-flow stats, flow
// summary and engine counters. The other population tests compare two runs
// of one build, so only this one catches a change in how the ON/OFF
// schedule ties with the rest of the run's events.
// Regenerate with: go test ./internal/experiment -run PopulationGoldenDigest -update
func TestPopulationGoldenDigest(t *testing.T) {
	r := Run(RunConfig{
		Condition: Condition{
			System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
		},
		Population: FlowPopulation{
			Flows: 40, Streams: 1,
			Mix: []Competitor{
				{Kind: CompIperf, CCA: "cubic"}, {Kind: CompIperf, CCA: "bbr"},
				{Kind: CompDash, CCA: "cubic"}, {Kind: CompVideoCall},
			},
			MeanOn: 2 * time.Second, MeanOff: time.Second,
		},
		Timeline: metrics.PaperTimeline.Scale(0.1),
		Seed:     7,
	})
	rec := r.Record(0)
	rec.Engine.WallSeconds = 0
	rec.Engine.Speedup = 0
	rec.Engine.EventsPerSecond = 0
	es := r.Engine
	es.WallTime = 0
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{rec, r.Flows, r.FlowSummary, es} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	checkGoldenDigest(t, "population_golden.sha256", hex.EncodeToString(h.Sum(nil)))
}

// canonicalLog parses JSONL records, zeroes the wall-clock fields (the only
// legitimately machine-dependent values), re-marshals, and sorts the lines
// so worker completion order does not matter; everything else must match
// byte for byte.
func canonicalLog(t *testing.T, b []byte) string {
	t.Helper()
	var lines []string
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec obs.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad runlog line %q: %v", line, err)
		}
		rec.Engine.WallSeconds = 0
		rec.Engine.Speedup = 0
		rec.Engine.EventsPerSecond = 0
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(out))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// lockedBuffer is a run-log writer safe for concurrent workers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestPopulationSweepDeterministicAcrossWorkers is the acceptance check for
// the flow-population scheduler: a populated grid's runlog records are
// byte-identical across 1, 4 and 8 workers (compared order-independently),
// and the per-run flow summaries agree run for run.
func TestPopulationSweepDeterministicAcrossWorkers(t *testing.T) {
	var jobs []Job
	for it := 0; it < 2; it++ {
		for _, sys := range []gamestream.System{gamestream.Stadia, gamestream.Luna} {
			cond := Condition{System: sys, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
			jobs = append(jobs, Job{Iter: it, Cfg: RunConfig{
				Condition:  cond,
				Timeline:   metrics.PaperTimeline.Scale(0.05),
				Seed:       RunSeed(7, it, cond),
				Population: FlowPopulation{Flows: 6, Streams: 1},
			}})
		}
	}
	sweepWith := func(workers int) ([]*RunResult, string) {
		var sink lockedBuffer
		runs := make([]*RunResult, len(jobs))
		Execute(context.Background(), jobs, workers, nil, Sinks{Progress: obs.NewJSONL(&sink)},
			func(i int, res *RunResult, _ bool) { runs[i] = res })
		return runs, canonicalLog(t, sink.buf.Bytes())
	}
	refRuns, refLog := sweepWith(1)
	if refLog == "" {
		t.Fatal("1-worker sweep produced an empty runlog")
	}
	for _, workers := range []int{4, 8} {
		runs, log := sweepWith(workers)
		if log != refLog {
			t.Errorf("runlog with %d workers differs from 1-worker runlog", workers)
		}
		for i, ra := range refRuns {
			rb := runs[i]
			if ra == nil || rb == nil {
				t.Fatalf("%s: runs missing with %d workers", jobs[i].Cfg.Condition, workers)
			}
			if ra.FlowSummary != rb.FlowSummary {
				t.Errorf("%s run %d: flow summary diverged with %d workers", ra.Cfg.Condition, jobs[i].Iter, workers)
			}
		}
	}
}

// TestManyFlowsSteadyStateAllocs is the allocation-discipline acceptance
// check: with 200 flow slots, doubling the simulated time (and therefore
// roughly doubling the packet count) must not grow heap allocations
// proportionally — steady state is allocation-free, so the delta between a
// short and a long run stays a tiny fraction of the event delta.
func TestManyFlowsSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("200-flow smoke run is a few seconds")
	}
	run := func(scale float64) (allocs uint64, events uint64) {
		cfg := RunConfig{
			Condition: Condition{
				System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
			},
			Population: FlowPopulation{Flows: 200},
			Timeline:   metrics.PaperTimeline.Scale(scale),
			Seed:       1,
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := Run(cfg)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, r.Engine.EventsDispatched
	}
	// Warm up once so lazily initialised globals (profiles, tables) are out
	// of the measured numbers.
	run(0.02)
	shortAllocs, shortEvents := run(0.03)
	longAllocs, longEvents := run(0.06)
	if longEvents < shortEvents*3/2 {
		t.Fatalf("long run barely longer: %d vs %d events", longEvents, shortEvents)
	}
	extraAllocs := int64(longAllocs) - int64(shortAllocs)
	extraEvents := int64(longEvents) - int64(shortEvents)
	if extraAllocs > extraEvents/100 {
		t.Errorf("steady state allocates: %d extra allocs over %d extra events (short %d, long %d)",
			extraAllocs, extraEvents, shortAllocs, longAllocs)
	}
}

// TestRunAllocBudget pins the absolute allocation cost of one
// full-fidelity run, construction plus steady state, for the paper's
// central condition under both competitor CCAs, the BBR-starved
// shallow-queue cell, a solo baseline, the deep-queue AQM variant and the
// 200-flow population. Allocation counts are exact for a given build, so
// each ceiling sits a few allocs above today's count (the ceilings are the
// counts these cases recorded in BENCH_10.json): a new
// per-run allocation site fails here, and a regression back toward
// per-slot or per-packet churn fails loudly rather than fading into
// benchmark noise. TestManyFlowsSteadyStateAllocs and
// TestSteadyStateAllocsBBRAndImpaired prove separately that the steady
// state does not grow with simulated time.
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fourteen full-timeline runs take several seconds")
	}
	cases := []struct {
		name    string
		cfg     RunConfig
		ceiling float64
	}{
		{"stadia_cubic_B25_q2", RunConfig{
			Condition: Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2},
			Seed:      1,
		}, 483},
		{"stadia_bbr_B25_q2", RunConfig{
			Condition: Condition{System: gamestream.Stadia, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 2},
			Seed:      1,
		}, 433},
		{"luna_bbr_B25_q0.5", RunConfig{
			Condition: Condition{System: gamestream.Luna, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 0.5},
			Seed:      1,
		}, 505},
		{"geforce_solo_B15_q2", RunConfig{
			Condition: Condition{System: gamestream.GeForce, Capacity: units.Mbps(15), QueueMult: 2},
			Seed:      1,
		}, 301},
		{"stadia_cubic_B25_q7_codel", RunConfig{
			Condition: Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 7, AQM: AQMCoDel},
			Seed:      1,
		}, 624},
		{"many_flows_200", RunConfig{
			Condition:  Condition{System: gamestream.Stadia, Capacity: units.Mbps(25), QueueMult: 2},
			Population: FlowPopulation{Flows: 200},
			Seed:       1,
		}, 513},
	}
	// The first measurement in a process reads a few allocs high (lazily
	// initialised runtime and package state), so one measured run is
	// thrown away before the table.
	testing.AllocsPerRun(1, func() { Run(cases[0].cfg) })
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := testing.AllocsPerRun(1, func() { Run(tc.cfg) })
			if n > tc.ceiling {
				t.Errorf("%.0f allocs/run, over the ceiling of %.0f", n, tc.ceiling)
			} else {
				t.Logf("%.0f allocs/run, ceiling %.0f", n, tc.ceiling)
			}
		})
	}
}

// TestSteadyStateAllocsBBRAndImpaired extends the allocation-discipline
// check beyond the cubic reference run to the two holdout classes the
// profile work targeted: a BBR competitor (delivery-rate sampling and the
// BtlBw filter must not allocate per ACK) and an impaired path (the
// Gilbert-Elliott loss process, NACK retransmissions, and jitter timers
// must not allocate per packet). Doubling simulated time must leave the
// alloc delta a tiny fraction of the event delta.
func TestSteadyStateAllocsBBRAndImpaired(t *testing.T) {
	if testing.Short() {
		t.Skip("several full-fidelity runs")
	}
	cases := []struct {
		name string
		cond Condition
	}{
		{"bbr", Condition{
			System: gamestream.Stadia, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 2,
		}},
		{"impaired", Condition{
			System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
			Impair: netem.Impairment{
				LossModel: netem.LossGE, GEGoodBad: 0.01, GEBadGood: 0.25,
				Jitter: 2 * time.Millisecond,
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(scale float64) (allocs uint64, events uint64) {
				cfg := RunConfig{
					Condition: tc.cond,
					Timeline:  metrics.PaperTimeline.Scale(scale),
					Seed:      1,
				}
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				r := Run(cfg)
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, r.Engine.EventsDispatched
			}
			run(0.02) // warm lazily initialised globals
			shortAllocs, shortEvents := run(0.05)
			longAllocs, longEvents := run(0.1)
			if longEvents < shortEvents*3/2 {
				t.Fatalf("long run barely longer: %d vs %d events", longEvents, shortEvents)
			}
			extraAllocs := int64(longAllocs) - int64(shortAllocs)
			extraEvents := int64(longEvents) - int64(shortEvents)
			if extraAllocs > extraEvents/100 {
				t.Errorf("steady state allocates: %d extra allocs over %d extra events (short %d, long %d)",
					extraAllocs, extraEvents, shortAllocs, longAllocs)
			}
		})
	}
}
