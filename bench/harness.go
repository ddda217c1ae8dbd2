package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/iperf"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// The layer suite measures every layer through its public functions on
// fixed inputs derived from the seed. It runs in every traced run and does
// not depend on the workload, so one layer's numbers compare across
// workloads and commits.

// harnessReps is how many times each harness repeats; timings report the
// median, allocation counts the minimum (runtime.MemStats is process-wide).
const harnessReps = 3

// harnessSim is the simulated length of the netem, tcp and gamestream
// harnesses at scale 1.
const harnessSim = 60 * time.Second

// Path constants shared by the harnesses: the paper's 25 Mb/s bottleneck
// with a 2×BDP drop-tail queue and its 16.5 ms base RTT.
var (
	harnessRate  = units.Mbps(25)
	harnessLimit = 2 * units.BDP(harnessRate, defaultBaseRTT)
)

func layerSuite(e *env, c *checker) (map[string]float64, error) {
	m := map[string]float64{}
	dur := time.Duration(float64(harnessSim) * e.scale)
	simHarness(e, m)
	netemHarness(e, m, dur)
	tcpHarness(e, m, dur)
	gamestreamHarness(e, m, dur)
	traceHarness(e, m)
	if err := campaignSuite(e, c, m); err != nil {
		return nil, fmt.Errorf("layer suite: %w", err)
	}
	var parse []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := scenario.ParseFile(filepath.Join(e.root, "scenarios", "impaired_multihop.scn")); err != nil {
			return nil, err
		}
		parse = append(parse, us(time.Since(t0)))
	}
	m["scenario.parse_us"] = median(parse)
	return m, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// repeat runs fn harnessReps times and returns the median of its first
// result and the minimum of its second.
func repeat(fn func() (float64, uint64)) (med float64, least uint64) {
	var xs []float64
	for i := 0; i < harnessReps; i++ {
		x, n := fn()
		xs = append(xs, x)
		if i == 0 || n < least {
			least = n
		}
	}
	return median(xs), least
}

// mallocs returns the process's heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// simHarness times bare engine dispatch: a chain of single events, and a
// chain with 64 events on every timestamp (the batched drain path).
func simHarness(e *env, m map[string]float64) {
	n := max(int(float64(1<<20)*e.scale), 1<<12)
	chain := func(perStamp int) func() (float64, uint64) {
		return func() (float64, uint64) {
			eng := sim.NewEngine(e.seed)
			noop := func() {}
			k := 0
			var fn func()
			fn = func() {
				for i := 1; i < perStamp; i++ {
					eng.Schedule(time.Microsecond, noop)
				}
				if k++; k*perStamp < n {
					eng.Schedule(time.Microsecond, fn)
				}
			}
			eng.Schedule(time.Microsecond, fn)
			t0 := time.Now()
			eng.Run(sim.End)
			return float64(time.Since(t0).Nanoseconds()) / float64(eng.Stats().EventsDispatched), 0
		}
	}
	m["sim.dispatch_ns"], _ = repeat(chain(1))
	m["sim.batch_dispatch_ns"], _ = repeat(chain(64))
}

// netemPath offers twice a 25 Mb/s shaper's rate in full-size packets from
// a ticker for dur and returns the wall time, packets offered and packets
// dropped (by the queue, or by the impairer's loss model).
func netemPath(seed uint64, kind string, dur time.Duration) (wall time.Duration, pkts, drops int) {
	eng := sim.NewEngine(seed)
	pool := packet.NewPool()
	var q netem.Queue = netem.NewDropTail(harnessLimit)
	if kind == "codel" {
		q = netem.NewCoDel(harnessLimit)
	}
	q.SetDropCallback(func(p *packet.Packet) { drops++; pool.Put(p) })
	var out packet.Handler = packet.HandlerFunc(pool.Put)
	var imp *netem.Impairer
	if kind == "impairer" {
		imp = netem.NewImpairer(eng, netem.Impairment{LossModel: netem.LossBernoulli, LossRate: 0.01, Jitter: 2 * time.Millisecond}, sim.NewRNG(seed), out)
		imp.SetPool(pool)
		out = imp
	}
	shaper := netem.NewShaper(eng, harnessRate, defaultBurst, q, out)
	interval := time.Duration(float64(packet.MTU*8) / float64(2*harnessRate) * float64(time.Second))
	src := sim.NewTicker(eng, interval, func() {
		p := pool.Get()
		p.Flow, p.Kind, p.Src, p.Dst, p.Size, p.SentAt = 1, packet.KindData, 1, 2, packet.MTU, eng.Now()
		pkts++
		shaper.Handle(p)
	})
	src.Start(true)
	t0 := time.Now()
	eng.Run(sim.At(dur))
	wall = time.Since(t0)
	if imp != nil {
		drops = imp.Snapshot().LossDrops
	}
	return wall, pkts, drops
}

func netemHarness(e *env, m map[string]float64, dur time.Duration) {
	var allocs uint64
	var pkts int
	for _, kind := range []string{"droptail", "codel", "impairer"} {
		var drops int
		var n int
		ns, least := repeat(func() (float64, uint64) {
			a0 := mallocs()
			wall, p, d := netemPath(e.seed, kind, dur)
			drops, n = d, p
			return float64(wall.Nanoseconds()) / float64(p), mallocs() - a0
		})
		m["netem."+kind+"_ns_per_pkt"] = ns
		m["netem."+kind+"_drops"] = float64(drops)
		allocs += least
		pkts += n
	}
	m["netem.allocs_per_pkt"] = float64(allocs) / float64(pkts)
}

// dumbbell is the harness path: server → shaper (2×BDP drop-tail) → delay →
// client, and client → delay → server, with one packet pool.
func dumbbell(seed uint64, server, client packet.Addr) (eng *sim.Engine, srv, cli *netem.Host) {
	eng = sim.NewEngine(seed)
	pool := packet.NewPool()
	var ids uint64
	owd := defaultBaseRTT / 2
	srv = netem.NewHost(eng, server, nil, &ids)
	cli = netem.NewHost(eng, client, nil, &ids)
	q := netem.NewDropTail(harnessLimit)
	q.SetDropCallback(pool.Put)
	srv.SetOut(netem.NewShaper(eng, harnessRate, defaultBurst, q, netem.NewDelay(eng, owd, cli)))
	cli.SetOut(netem.NewDelay(eng, owd, srv))
	srv.SetPool(pool)
	cli.SetPool(pool)
	return eng, srv, cli
}

func tcpHarness(e *env, m map[string]float64, dur time.Duration) {
	var allocs uint64
	for _, cca := range []string{"cubic", "bbr"} {
		var events uint64
		var retx int
		usPerSimS, least := repeat(func() (float64, uint64) {
			a0 := mallocs()
			eng, srv, cli := dumbbell(e.seed, 2, 12)
			f := iperf.New(srv, cli, 2, cca, sim.At(trace.DefaultBin))
			f.ScheduleRun(0, sim.At(dur))
			t0 := time.Now()
			eng.Run(sim.At(dur))
			wall := time.Since(t0)
			events, retx = eng.Stats().EventsDispatched, f.Sender.Stats.Retransmits
			return us(wall) / dur.Seconds(), mallocs() - a0
		})
		m["tcp."+cca+"_us_per_sim_s"] = usPerSimS
		m["tcp."+cca+"_events"] = float64(events)
		m["tcp."+cca+"_retx"] = float64(retx)
		allocs += least
	}
	m["tcp.allocs_per_sim_s"] = float64(allocs) / (2 * dur.Seconds())
}

func gamestreamHarness(e *env, m map[string]float64, dur time.Duration) {
	for _, sys := range gamestream.Systems {
		var events uint64
		var frames int64
		usPerSimS, _ := repeat(func() (float64, uint64) {
			eng, srv, cli := dumbbell(e.seed, 1, 11)
			prof := gamestream.ProfileFor(sys)
			server := gamestream.NewServer(srv, 1, 11, prof, sim.NewRNG(e.seed))
			client := gamestream.NewClient(cli, 1, 1, prof)
			server.Start()
			t0 := time.Now()
			eng.Run(sim.At(dur))
			wall := time.Since(t0)
			events, frames = eng.Stats().EventsDispatched, client.FramesDisplayed
			return us(wall) / dur.Seconds(), 0
		})
		m["gamestream."+string(sys)+"_us_per_sim_s"] = usPerSimS
		m["gamestream."+string(sys)+"_events"] = float64(events)
		m["gamestream."+string(sys)+"_frames"] = float64(frames)
	}
}

// traceHarness taps 32 packets every 10 ms of a 540 s horizon (one in 50
// never delivered) and then derives the bitrate series and per-bin loss the
// way a run's collect phase does. Tap cost is net of an empty ticker.
func traceHarness(e *env, m map[string]float64) {
	horizon := time.Duration(float64(metrics.PaperTimeline.TraceEnd) * e.scale)
	pkts := make([]packet.Packet, 32)
	for i := range pkts {
		pkts[i] = packet.Packet{Flow: packet.FlowID(1 + i%2), Size: packet.MTU}
	}
	run := func(tap bool) (time.Duration, int, *trace.Capture) {
		eng := sim.NewEngine(e.seed)
		capt := trace.NewCapture(eng, trace.DefaultBin)
		capt.SetHorizon(horizon)
		n := 0
		tick := sim.NewTicker(eng, 10*time.Millisecond, func() {
			if !tap {
				return
			}
			for i := range pkts {
				capt.Tap(&pkts[i])
				if n++; n%50 != 0 {
					capt.TapDelivered(&pkts[i])
				}
			}
		})
		tick.Start(true)
		t0 := time.Now()
		eng.Run(sim.At(horizon))
		return time.Since(t0), n, capt
	}
	var capt *trace.Capture
	m["trace.tap_ns_per_pkt"], _ = repeat(func() (float64, uint64) {
		empty, _, _ := run(false)
		wall, n, c := run(true)
		capt = c
		return float64((wall - empty).Nanoseconds()) / float64(n), 0
	})
	nbins := int(horizon / trace.DefaultBin)
	m["trace.series_us"], _ = repeat(func() (float64, uint64) {
		t0 := time.Now()
		capt.BitrateSeries(1, nbins)
		for i := 0; i < nbins; i++ {
			capt.LossBetween(1, sim.At(time.Duration(i)*trace.DefaultBin), sim.At(time.Duration(i+1)*trace.DefaultBin))
		}
		return us(time.Since(t0)), 0
	})
}

// runWorkers executes a campaign the way the coordinator runs a worker
// fleet, with n in-process workers in place of worker processes sharing one
// cache, and merges the shards. There is no final sweep: the workers must
// publish every shard between them, or the merge fails. It returns the
// merged result and how many workers exited on a torn claim (see
// fleetExits).
func runWorkers(sp *campaign.Spec, cache *runcache.Cache, dir string, n int) (*campaign.Result, int, error) {
	man, sp, err := campaign.Init(dir, sp, false)
	if err != nil {
		return nil, 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &campaign.Worker{Dir: dir, Manifest: man, Spec: sp, Cache: cache, Owner: fmt.Sprintf("bench-%d", i), Poll: 5 * time.Millisecond}
			_, errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	torn, err := fleetExits(errs)
	if err != nil {
		return nil, torn, err
	}
	res, err := campaign.Merge(dir, man, sp)
	return res, torn, err
}

// fleetExits judges the exits of a worker fleet. runcache.AcquireClaim
// creates a claim file and then writes it, so a worker that reads the file
// in between fails with a JSON syntax error and exits. That is a defect of
// the claim protocol, not of the code under test here: the other workers
// go on and finish the shards, and the coordinator treats it like any dead
// worker. Those exits are counted; any other exit is an error.
func fleetExits(errs []error) (torn int, err error) {
	var other []error
	for i, e := range errs {
		var syntax *json.SyntaxError
		switch {
		case e == nil:
		case errors.As(e, &syntax):
			torn++
		default:
			other = append(other, fmt.Errorf("worker %d: %w", i, e))
		}
	}
	return torn, errors.Join(other...)
}

// campaignSuite runs the small suite grid four ways — one worker through
// campaign.Run, N in-process workers, a traced cold campaign and a traced
// warm replay — checks that all four merge to the same merged.det.json, and
// times the experiment, runcache, obs, campaign, metrics and figures calls.
func campaignSuite(e *env, c *checker, m map[string]float64) error {
	sp, err := loadGridSpec(e, "suite.campaign")
	if err != nil {
		return err
	}
	cells := sp.Cells()
	base := filepath.Join(e.work, "suite")
	defer os.RemoveAll(base)
	open := func(name string) (*runcache.Cache, error) { return runcache.Open(filepath.Join(base, name, "cache")) }

	cache1, err := open("w1")
	if err != nil {
		return err
	}
	t0 := time.Now()
	res1, err := campaign.Run(context.Background(), sp, campaign.Options{Dir: filepath.Join(base, "w1", "camp"), Cache: cache1})
	if err != nil {
		return err
	}
	w1 := time.Since(t0)
	ref := res1.Det

	// N = min(nproc, 4) in-process workers: the N-worker check.
	n := min(runtime.NumCPU(), 4)
	cacheN, err := open("wN")
	if err != nil {
		return err
	}
	t0 = time.Now()
	resN, torn, err := runWorkers(sp, cacheN, filepath.Join(base, "wN", "camp"), n)
	wN := time.Since(t0)
	if err == nil {
		err = sameDet(resN.Det, ref, fmt.Sprintf("%d-worker", n))
	}
	c.op(err)
	if torn > 0 {
		fmt.Fprintf(e.log, "%d-worker campaign: %d workers exited on a torn claim file\n", n, torn)
	}
	m["campaign.torn_claim_exits_wN"] = float64(torn)
	m["campaign.wall_s_wN"] = wN.Seconds()
	m["campaign.speedup_wN"] = w1.Seconds() / wN.Seconds()

	// Traced cold campaign, then a traced warm replay over its cache.
	cache, err := open("traced")
	if err != nil {
		return err
	}
	tr := newTracer()
	var acc simAcc
	before := cache.Stats()
	res, _, err := tracedCampaign(tr, sp, cache, filepath.Join(base, "traced", "cold"), &acc)
	if err != nil {
		return err
	}
	c.op(errors.Join(sameDet(res.Det, ref, "traced cold"), checkCache(cache.Stats().Sub(before), len(cells), false)))
	cold := len(tr.spans)
	replay := *sp
	replay.Name += "-replay"
	warmDir := filepath.Join(base, "traced", "warm")
	before = cache.Stats()
	res, _, err = tracedCampaign(tr, &replay, cache, warmDir, &acc)
	if err != nil {
		return err
	}
	c.op(errors.Join(sameDet(res.Det, ref, "traced warm"), checkCache(cache.Stats().Sub(before), len(cells), true)))

	usOf := func(name string) float64 { return median(tr.named(name)) * 1e3 }
	m["campaign.claim_us"] = usOf("runcache.AcquireClaim")
	m["campaign.init_ms"] = median(tr.named("campaign.Init"))
	m["campaign.cells_us"] = usOf("campaign.Cells")
	m["campaign.merge_ms"] = median(tr.named("campaign.Merge"))
	m["metrics.record_us"] = usOf("metrics.Record")
	m["obs.fold_us"] = usOf("obs.RunDone")
	m["obs.snapshot_ms"] = median(tr.named("obs.Snapshot"))
	m["obs.write_snapshot_ms"] = median(tr.named("obs.WriteSnapshot"))
	m["figures.render_ms"] = median(tr.named("figures.RenderTelemetry"))

	// Per-cell cache calls. A second handle on the cache keeps the traced
	// campaigns' counters exact; puts go to a scratch cache.
	getter, err := runcache.Open(cache.Dir())
	if err != nil {
		return err
	}
	scratch, err := open("put")
	if err != nil {
		return err
	}
	var hits []float64
	for _, s := range tr.spans[cold:] {
		if s.Name == "experiment.RunCached" {
			hits = append(hits, ms(s.dur())*1e3)
		}
	}
	var keyUS, getUS, putUS, decodeUS []float64
	var blobBytes int
	for i, cell := range cells {
		t0 := time.Now()
		key, _ := experiment.CacheKey(cell.RunConfig(sp))
		k := us(time.Since(t0))
		t0 = time.Now()
		blob, ok := getter.Get(key)
		g := us(time.Since(t0))
		if !ok {
			return fmt.Errorf("cell %d missing from the cache after a cold campaign", i)
		}
		t0 = time.Now()
		if err := scratch.Put(key, blob); err != nil {
			return err
		}
		putUS = append(putUS, us(time.Since(t0)))
		keyUS, getUS = append(keyUS, k), append(getUS, g)
		decodeUS = append(decodeUS, hits[i]-g-k)
		blobBytes += len(blob)
	}
	m["experiment.cache_key_us"] = median(keyUS)
	m["experiment.decode_us"] = median(decodeUS)
	m["runcache.get_us"] = median(getUS)
	m["runcache.put_us"] = median(putUS)
	m["runcache.blob_kb"] = float64(blobBytes) / float64(len(cells)) / 1024

	// MergeSnapshots + DeterministicJSON on the warm replay's shard files.
	var snaps []*obs.Snapshot
	for i := 0; i < sp.ShardCount(); i++ {
		s, err := obs.ReadSnapshot(campaign.SnapPath(warmDir, i))
		if err != nil {
			return err
		}
		snaps = append(snaps, s)
	}
	var mergeErr error
	m["obs.merge_ms"], _ = repeat(func() (float64, uint64) {
		t0 := time.Now()
		merged, err := obs.MergeSnapshots(snaps)
		var det []byte
		if err == nil {
			det, err = merged.DeterministicJSON()
		}
		wall := time.Since(t0)
		mergeErr = errors.Join(mergeErr, err, sameDet(det, ref, "obs merge"))
		return ms(wall.Nanoseconds()), 0
	})
	c.op(mergeErr)

	// Direct runs of the suite cells: build and collect cost around the
	// simulation, response/recovery analysis, and the persisted encoding.
	var build, rr, enc []float64
	sweep := filepath.Join(base, "sweep.gob")
	for _, cell := range cells {
		cfg := cell.RunConfig(sp)
		t0 := time.Now()
		r := experiment.Run(cfg)
		build = append(build, ms((time.Since(t0) - r.Engine.WallTime).Nanoseconds()))
		t0 = time.Now()
		metrics.MeasureResponseRecovery(r.GameSeries(), r.Cfg.Timeline)
		rr = append(rr, us(time.Since(t0)))
		one := &experiment.SweepResult{Conditions: []*experiment.ConditionResult{{Cond: r.Cfg.Condition, Runs: []*experiment.RunResult{r}}}}
		t0 = time.Now()
		if err := experiment.SaveSweep(sweep, one); err != nil {
			return err
		}
		enc = append(enc, us(time.Since(t0)))
	}
	m["experiment.build_collect_ms"] = median(build)
	m["metrics.response_recovery_us"] = median(rr)
	m["experiment.encode_us"] = median(enc)
	return nil
}
