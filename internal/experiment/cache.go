package experiment

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"runtime/debug"

	"repro/internal/runcache"
)

// cacheSchema versions the cache key layout and the stored run encoding.
// Bump it whenever run semantics change in a way the key fields cannot see
// (a profile recalibration, a new default, a persistence format change):
// every old entry then misses and is recomputed. See docs/ARCHITECTURE.md,
// "Run cache: the key contract".
const cacheSchema = "run-v5"

// cacheVersion is the module-version component of every cache key: the
// schema generation plus the main module's version and VCS revision when
// the build carries them. Two different builds of the simulator may
// legitimately produce different traces, so results they cache must never
// be confused — including the build identity in the key makes a stale
// cache directory merely cold, never wrong. Dev builds without VCS
// stamping (go test, go run) all read "(devel)" and share entries; the
// schema constant is the manual invalidation knob for those.
var cacheVersion = func() string {
	v := cacheSchema
	if bi, ok := debug.ReadBuildInfo(); ok {
		v += "/" + bi.Main.Path + "@" + bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v += "+" + s.Value
			}
		}
	}
	return v
}()

// Cacheable reports whether a run can be served from (and stored into) a
// run cache. Runs carrying a probe capture or a profile override are
// excluded: their value is exactly the part of the run a stored RunResult
// does not round-trip. ForceImpairer runs are excluded too: they exist to
// differentially test the impairment stage, and serving them from the
// cache of their (equivalent) plain runs would erase exactly the
// difference under test.
func (c RunConfig) Cacheable() bool {
	return c.Probe == nil && c.Profile == nil && !c.ForceImpairer
}

// CacheKey derives the content address of cfg's result: a SHA-256 over the
// canonical serialisation of every field that feeds the simulation (the
// full condition including impairments, the timeline, the seed, the path
// constants, competitors, and the retuning schedule) plus the module
// version. ok is false when the run is not Cacheable. Field values are
// written length-prefixed and in a fixed order, so the key is stable
// across processes and architectures.
func CacheKey(cfg RunConfig) (key runcache.Key, ok bool) {
	if !cfg.Cacheable() {
		return runcache.Key{}, false
	}
	cfg = cfg.Defaults()
	b := runcache.NewKey()
	b.Add(cacheVersion)
	// Condition coordinates. Scalars are rendered explicitly rather than
	// via Condition.String(), which elides disabled impairment fields.
	b.Add(string(cfg.System), cfg.CCA, cfg.AQM)
	b.Addf("cap=%d", int64(cfg.Capacity))
	b.Addf("qmult=%g", cfg.QueueMult)
	im := cfg.Impair
	b.Addf("impair=%s/%g/%g/%g/%g/%g/%d/%t/%g",
		im.LossModel, im.LossRate, im.GEGoodBad, im.GEBadGood,
		im.GELossGood, im.GELossBad, im.Jitter.Nanoseconds(), im.Reorder, im.Duplicate)
	// Run parameters.
	b.Addf("timeline=%d/%d/%d",
		cfg.Timeline.FlowStart.Nanoseconds(), cfg.Timeline.FlowStop.Nanoseconds(),
		cfg.Timeline.TraceEnd.Nanoseconds())
	b.Addf("seed=%d", cfg.Seed)
	b.Addf("rtt=%d burst=%d ping=%d",
		cfg.BaseRTT.Nanoseconds(), int64(cfg.Burst), cfg.PingInterval.Nanoseconds())
	b.Addf("competitors=%d", len(cfg.Competitors))
	for _, comp := range cfg.Competitors {
		b.Add(comp.Kind, comp.CCA)
	}
	// Flow population. Written unconditionally (the zero value included),
	// so a cached 1-vs-1 result can never be served for an N-flow run.
	pop := cfg.Population
	b.Addf("population=%d/%d/%d/%d/%g",
		pop.Flows, pop.Streams,
		pop.MeanOn.Nanoseconds(), pop.MeanOff.Nanoseconds(), pop.Shape)
	b.Addf("popmix=%d", len(pop.Mix))
	for _, m := range pop.Mix {
		b.Add(m.Kind, m.CCA)
	}
	b.Addf("schedule=%d", len(cfg.Schedule))
	for _, st := range cfg.Schedule {
		b.Addf("%d/%s/%d/%d/%g/%d",
			st.At.Nanoseconds(), st.Kind, int64(st.Rate),
			st.Delay.Nanoseconds(), st.LossRate, st.Jitter.Nanoseconds())
	}
	return b.Key(), true
}

// RunCached executes cfg through the cache: a hit decodes and returns the
// stored result (byte-identical to what the run would produce — the
// simulator is a pure function of cfg), a miss runs and stores. A nil
// cache, or an uncacheable cfg, degrades to a plain Run. hit reports
// whether the result came from the store.
func RunCached(c *runcache.Cache, cfg RunConfig) (res *RunResult, hit bool) {
	if c == nil {
		return Run(cfg), false
	}
	key, ok := CacheKey(cfg)
	if !ok {
		c.Bypass()
		return Run(cfg), false
	}
	if data, found := c.Get(key); found {
		if r, err := decodeRun(data); err == nil {
			return r, true
		}
		// A torn or stale-format entry: drop it and recompute below.
		c.Discard(key)
	}
	r := Run(cfg)
	if data, err := encodeRun(r); err == nil {
		// A full store failing (disk full, permissions) must not kill the
		// campaign; the run result is still good, the entry just stays
		// cold. The cache's Errors counter records the failure.
		_ = c.Put(key, data)
	}
	return r, false
}

// encodeRun renders a run result as the cache entry payload: gzipped gob of
// the same persisted form SaveSweep uses.
func encodeRun(r *RunResult) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(gz).Encode(toPersisted(r)); err != nil {
		return nil, fmt.Errorf("experiment: encode run: %w", err)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("experiment: encode run: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeRun parses a cache entry payload back into a run result.
func decodeRun(data []byte) (*RunResult, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("experiment: decode run: %w", err)
	}
	var p persistedRun
	if err := gob.NewDecoder(gz).Decode(&p); err != nil {
		return nil, fmt.Errorf("experiment: decode run: %w", err)
	}
	// Require a clean gzip tail so a truncated entry cannot decode.
	if _, err := io.Copy(io.Discard, gz); err != nil {
		return nil, fmt.Errorf("experiment: decode run: %w", err)
	}
	return fromPersisted(&p), nil
}
