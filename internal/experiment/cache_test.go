package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/runcache"
	"repro/internal/units"
)

// cacheCfg is the small run the cache tests execute repeatedly.
func cacheCfg(seed uint64) RunConfig {
	return RunConfig{
		Condition: Condition{
			System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
		},
		Timeline: metrics.PaperTimeline.Scale(0.05),
		Seed:     seed,
	}
}

func TestCacheKeyStabilityAndSensitivity(t *testing.T) {
	base := cacheCfg(42)
	k1, ok := CacheKey(base)
	if !ok {
		t.Fatal("base config not cacheable")
	}
	if k2, _ := CacheKey(base); k2 != k1 {
		t.Fatal("same config produced different keys")
	}

	// Defaults canonicalisation: a zero field and its explicit default
	// describe the same run and must share one entry.
	explicit := base
	explicit.PingInterval = 500 * time.Millisecond // Defaults() value
	if k, _ := CacheKey(explicit); k != k1 {
		t.Error("explicit default PingInterval changed the key")
	}

	// Every simulation-relevant field must move the key.
	mutations := map[string]func(*RunConfig){
		"seed":       func(c *RunConfig) { c.Seed = 43 },
		"system":     func(c *RunConfig) { c.System = gamestream.Luna },
		"cca":        func(c *RunConfig) { c.CCA = "bbr" },
		"capacity":   func(c *RunConfig) { c.Capacity = units.Mbps(35) },
		"queue":      func(c *RunConfig) { c.QueueMult = 7 },
		"aqm":        func(c *RunConfig) { c.AQM = AQMCoDel },
		"timeline":   func(c *RunConfig) { c.Timeline = metrics.PaperTimeline.Scale(0.1) },
		"base-rtt":   func(c *RunConfig) { c.BaseRTT = 30 * time.Millisecond },
		"ping":       func(c *RunConfig) { c.PingInterval = time.Second },
		"impair":     func(c *RunConfig) { c.Impair.LossRate = 0.01; c.Impair.LossModel = "bernoulli" },
		"competitor": func(c *RunConfig) { c.Competitors = []Competitor{{Kind: CompIperf, CCA: "bbr"}} },
		// Population fields: a cached 1-vs-1 result must never be served
		// for an N-flow run, and every shape knob must move the key.
		"pop-flows":    func(c *RunConfig) { c.Population.Flows = 20 },
		"pop-streams":  func(c *RunConfig) { c.Population.Streams = 2 },
		"pop-mean-on":  func(c *RunConfig) { c.Population = FlowPopulation{Flows: 20, MeanOn: 10 * time.Second} },
		"pop-mean-off": func(c *RunConfig) { c.Population = FlowPopulation{Flows: 20, MeanOff: 5 * time.Second} },
		"pop-shape":    func(c *RunConfig) { c.Population = FlowPopulation{Flows: 20, Shape: 2.5} },
		"pop-mix": func(c *RunConfig) {
			c.Population = FlowPopulation{Flows: 20, Mix: []Competitor{{Kind: CompDash, CCA: "cubic"}}}
		},
		"schedule": func(c *RunConfig) {
			s, err := ParseSchedule("10s rate=10mbit")
			if err != nil {
				t.Fatal(err)
			}
			c.Schedule = s
		},
	}
	keys := map[runcache.Key]string{k1: "base"}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		k, ok := CacheKey(cfg)
		if !ok {
			t.Fatalf("%s: mutated config not cacheable", name)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("mutation %q collided with %q", name, prev)
		}
		keys[k] = name
	}

	// Observer-carrying runs are not cacheable: their value is the live
	// capture a stored result cannot carry.
	probed := base
	probed.Probe = &probe.Config{Interval: time.Second}
	if _, ok := CacheKey(probed); ok {
		t.Error("probed config reported cacheable")
	}
}

func TestRunCachedHitMatchesFreshRun(t *testing.T) {
	population := cacheCfg(42)
	population.Population = FlowPopulation{
		Flows: 6, Streams: 1,
		Mix: []Competitor{{Kind: CompIperf, CCA: "bbr"}, {Kind: CompDash, CCA: "cubic"}, {Kind: CompVideoCall}},
	}
	impaired := cacheCfg(42)
	impaired.Impair = netem.Impairment{
		LossModel: netem.LossGE, GEGoodBad: 0.01, GEBadGood: 0.25, Jitter: 2 * time.Millisecond,
	}
	sched, err := ParseSchedule("5s rate=10mbit; 8s loss=2%; 10s down; 11s up")
	if err != nil {
		t.Fatal(err)
	}
	impaired.Schedule = sched

	for name, cfg := range map[string]RunConfig{
		"plain": cacheCfg(42), "population": population, "impaired": impaired,
	} {
		t.Run(name, func(t *testing.T) {
			cache, err := runcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fresh := Run(cfg)
			if name == "population" && len(fresh.Flows) == 0 || name == "impaired" && fresh.Impair.Packets == 0 {
				t.Fatal("config left the fields it is here to cover at zero")
			}
			miss, hit := RunCached(cache, cfg)
			if hit {
				t.Fatal("first RunCached reported a hit on an empty cache")
			}
			replay, hit := RunCached(cache, cfg)
			if !hit {
				t.Fatal("second RunCached missed")
			}

			// The persisted form is the contract: the replayed result must
			// carry exactly what a fresh execution persists, field for
			// field. Only the engine's wall-clock differs legitimately
			// between executions.
			strip := func(r *RunResult) persistedRun {
				p := toPersisted(r)
				p.Engine.WallTime = 0
				return p
			}
			want := strip(fresh)
			for name, r := range map[string]*RunResult{"missed": miss, "replayed": replay} {
				if got := strip(r); !reflect.DeepEqual(got, want) {
					t.Errorf("%s result diverges from fresh run", name)
				}
			}
			if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 || s.Stored != 1 {
				t.Fatalf("Stats = %+v; want 1 hit, 1 miss, 1 stored", s)
			}
		})
	}
}

func TestRunCachedBypassesAndDegrades(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Probed runs bypass: the capture must come back live.
	cfg := cacheCfg(7)
	cfg.Probe = &probe.Config{Interval: 100 * time.Millisecond}
	res, hit := RunCached(cache, cfg)
	if hit || res.Probe == nil {
		t.Fatalf("probed run: hit=%v probe=%v; want bypass with live capture", hit, res.Probe != nil)
	}
	if s := cache.Stats(); s.Bypassed != 1 || s.Lookups() != 0 {
		t.Fatalf("Stats = %+v; want 1 bypassed, 0 lookups", s)
	}

	// A nil cache degrades to a plain run.
	if res, hit := RunCached(nil, cacheCfg(7)); hit || res == nil {
		t.Fatal("nil cache did not degrade to a plain run")
	}
}

func TestRunCachedRecoversFromCorruptEntry(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheCfg(42)
	key, ok := CacheKey(cfg)
	if !ok {
		t.Fatal("config not cacheable")
	}
	if err := cache.Put(key, []byte("not a gzip entry")); err != nil {
		t.Fatal(err)
	}

	res, hit := RunCached(cache, cfg)
	if hit || res == nil {
		t.Fatalf("corrupt entry: hit=%v; want recompute", hit)
	}
	if s := cache.Stats(); s.Errors == 0 {
		t.Fatal("corrupt entry left no error in stats")
	}
	// The recompute overwrote the entry; the next lookup replays cleanly.
	if _, hit := RunCached(cache, cfg); !hit {
		t.Fatal("entry not repaired after corrupt read")
	}
}

// TestRunCachedRejectsTruncatedBlob corrupts an entry the way a dying
// machine would — the blob file loses its tail on disk — and proves the
// decode check fires: the lookup must not replay the damaged entry, the
// recompute must repair it, and the repaired entry must replay cleanly.
func TestRunCachedRejectsTruncatedBlob(t *testing.T) {
	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheCfg(42)
	fresh, hit := RunCached(cache, cfg)
	if hit {
		t.Fatal("first run hit an empty cache")
	}

	blobs, err := filepath.Glob(filepath.Join(dir, "*", "*.blob"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("want exactly 1 blob, got %d (err %v)", len(blobs), err)
	}
	fi, err := os.Stat(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(blobs[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	res, hit := RunCached(cache, cfg)
	if hit {
		t.Fatal("truncated blob was replayed as a hit")
	}
	if s := cache.Stats(); s.Errors == 0 {
		t.Fatalf("truncated blob left no error in stats: %+v", s)
	}
	strip := func(r *RunResult) persistedRun {
		p := toPersisted(r)
		p.Engine.WallTime = 0
		return p
	}
	if !reflect.DeepEqual(strip(res), strip(fresh)) {
		t.Fatal("recompute after truncation diverged from the fresh run")
	}
	// The recompute overwrote the damaged entry.
	if _, hit := RunCached(cache, cfg); !hit {
		t.Fatal("entry not repaired after truncation")
	}
}

// memLog collects run records in memory.
type memLog struct {
	mu   sync.Mutex
	recs []obs.Record
}

func (m *memLog) SweepStart(int)                {}
func (m *memLog) SweepDone(bool, time.Duration) {}

func (m *memLog) RunDone(u obs.Update) {
	m.mu.Lock()
	m.recs = append(m.recs, *u.Record)
	m.mu.Unlock()
}

// cancelAfter is a Progress sink that cancels a context after n completed
// runs — the test's stand-in for Ctrl-C mid-campaign.
type cancelAfter struct {
	n      int32
	after  int32
	cancel context.CancelFunc
}

func (c *cancelAfter) SweepStart(int) {}
func (c *cancelAfter) RunDone(obs.Update) {
	if atomic.AddInt32(&c.n, 1) == c.after {
		c.cancel()
	}
}
func (c *cancelAfter) SweepDone(bool, time.Duration) {}

// normalizeJSONL renders records as sorted JSONL with the fields that
// legitimately differ between an executed and a replayed run zeroed: the
// Cached marker and the engine's wall-clock-derived numbers. Everything
// else — every metric, every counter, every seed — must be byte-identical.
func normalizeJSONL(t *testing.T, recs []obs.Record) []byte {
	t.Helper()
	rs := append([]obs.Record(nil), recs...)
	for i := range rs {
		rs[i].Cached = false
		rs[i].Engine.WallSeconds = 0
		rs[i].Engine.Speedup = 0
		rs[i].Engine.EventsPerSecond = 0
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Cond != rs[j].Cond {
			return rs[i].Cond < rs[j].Cond
		}
		if rs[i].Seed != rs[j].Seed {
			return rs[i].Seed < rs[j].Seed
		}
		return rs[i].Iteration < rs[j].Iteration
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepCacheDeterminism is the cache's end-to-end contract: a fresh
// sweep, a fully cached replay, and an interrupted-then-resumed sweep must
// all export byte-identical (normalised) JSONL, across worker counts.
func TestSweepCacheDeterminism(t *testing.T) {
	base := SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia, gamestream.Luna},
		CCAs:       []string{"cubic", "bbr"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 2,
		Timeline:   metrics.PaperTimeline.Scale(0.05),
		BaseSeed:   7,
	}
	const total = 2 * 2 * 2 // systems × ccas × iterations

	sweep := func(workers int, cache *runcache.Cache, ctx context.Context, prog obs.Progress) (*SweepResult, []obs.Record) {
		cfg := base
		cfg.Workers = workers
		cfg.Cache = cache
		log := &memLog{}
		cfg.Progress = obs.MultiProgress(prog, log)
		if ctx == nil {
			ctx = context.Background()
		}
		return RunSweep(ctx, cfg), log.recs
	}

	// Reference: no cache, sequential.
	refRes, refRecs := sweep(1, nil, nil, nil)
	if len(refRecs) != total {
		t.Fatalf("reference sweep logged %d runs, want %d", len(refRecs), total)
	}
	want := normalizeJSONL(t, refRecs)

	// Cold cache: everything misses and is stored.
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coldRes, coldRecs := sweep(4, cache, nil, nil)
	if got := normalizeJSONL(t, coldRecs); !bytes.Equal(got, want) {
		t.Error("cold cached sweep JSONL diverges from uncached reference")
	}
	if c := coldRes.Cache; c.Misses != total || c.Stored != total || c.Hits != 0 {
		t.Fatalf("cold sweep cache stats = %+v; want %d misses/stored", c, total)
	}

	// Warm cache: pure replay, across two worker counts.
	for _, workers := range []int{4, 8} {
		warmRes, warmRecs := sweep(workers, cache, nil, nil)
		if got := normalizeJSONL(t, warmRecs); !bytes.Equal(got, want) {
			t.Errorf("warm cached sweep (workers=%d) JSONL diverges from reference", workers)
		}
		if c := warmRes.Cache; c.Hits != total || c.Misses != 0 {
			t.Fatalf("warm sweep (workers=%d) cache stats = %+v; want %d hits", workers, c, total)
		}
		for _, r := range warmRecs {
			if !r.Cached {
				t.Fatalf("warm sweep run %s/seed%d not marked cached", r.Cond, r.Seed)
			}
		}
	}

	// Interrupt a fresh campaign after three runs, then resume with the
	// same cache: only the missing runs may execute.
	resumeCache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partialRes, partialRecs := sweep(2, resumeCache, ctx, &cancelAfter{after: 3, cancel: cancel})
	completed := len(partialRecs)
	if !partialRes.Interrupted || completed >= total {
		t.Fatalf("partial sweep: interrupted=%v completed=%d; want an interrupted sweep with <%d runs",
			partialRes.Interrupted, completed, total)
	}
	if c := partialRes.Cache; c.Stored != uint64(completed) {
		t.Fatalf("partial sweep stored %d of %d completed runs", c.Stored, completed)
	}

	resumedRes, resumedRecs := sweep(2, resumeCache, nil, nil)
	if got := normalizeJSONL(t, resumedRecs); !bytes.Equal(got, want) {
		t.Error("resumed sweep JSONL diverges from reference")
	}
	if c := resumedRes.Cache; c.Hits != uint64(completed) || c.Misses != uint64(total-completed) {
		t.Fatalf("resumed sweep cache stats = %+v; want %d hits, %d misses (only missing runs execute)",
			c, completed, total-completed)
	}
	if resumedRes.Interrupted || refRes.Interrupted {
		t.Fatal("uncancelled sweep reported Interrupted")
	}
}
