package experiment

import (
	"encoding/binary"
	"errors"
	"runtime/debug"
	"time"

	"repro/internal/ping"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/wire"
)

// cacheSchema versions the cache key layout and the stored run encoding.
// Bump it whenever run semantics change in a way the key fields cannot see
// (a profile recalibration, a new default, a change to the encodeRun
// layout): every old entry then misses and is recomputed. See
// docs/ARCHITECTURE.md, "Run cache: the key contract".
const cacheSchema = "run-v7"

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
//
// An entry does not store the run's config: a hit's Cfg is cfg.Defaults(),
// exactly what Run records. Nothing is lost, because a cacheable config
// carries no Profile and no Probe.
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
			r.Cfg = cfg.Defaults()
			return r, true
		}
		// A torn or stale-format entry: drop it and recompute below.
		c.Discard(key)
	}
	r := Run(cfg)
	// A full store failing (disk full, permissions) must not kill the
	// campaign; the run result is still good, the entry just stays cold.
	// The cache's Errors counter records the failure.
	_ = c.Put(key, encodeRun(r))
	return r, false
}

// runMagic opens every cache entry: the codec's name and the schema
// version, so a payload in any other format fails on its first bytes.
const runMagic = "gs" + cacheSchema + "\n"

// errBadRun is what decodeRun returns for any entry it does not accept.
var errBadRun = errors.New("experiment: decode run: malformed cache entry")

// encodeRun renders the persisted part of a run result (everything but Cfg
// and Probe) as a cache entry in the internal/wire frame: runMagic, then
// the fields in a fixed order, then a CRC-32C of everything before it. The
// layout is fixed by this function and decodeRun alone; change both
// together and bump cacheSchema.
func encodeRun(r *RunResult) []byte {
	// Size the buffer once: 8 bytes a float, and generous guesses for a
	// varint pair, a flow record and a trace's two names.
	size := 256 + 8*(len(r.GameMbps)+len(r.TCPMbps)+len(r.FPSBins)+len(r.GameLossBins)+len(r.TCPLossBins)) +
		12*len(r.RTT) + 48*len(r.Flows)
	for _, ct := range r.CompetitorTraces {
		size += 32 + 8*len(ct.Mbps)
	}
	b := make([]byte, 0, size)
	b = append(b, runMagic...)
	b = binary.AppendVarint(b, int64(r.Bin))
	b = wire.AppendFloats(b, r.GameMbps)
	b = wire.AppendFloats(b, r.TCPMbps)
	b = wire.AppendFloats(b, r.FPSBins)
	b = wire.AppendFloats(b, r.GameLossBins)
	b = wire.AppendFloats(b, r.TCPLossBins)
	b = binary.AppendUvarint(b, uint64(len(r.RTT)))
	for _, s := range r.RTT {
		b = binary.AppendVarint(b, int64(s.At))
		b = binary.AppendVarint(b, int64(s.RTT))
	}
	b = binary.AppendUvarint(b, uint64(len(r.CompetitorTraces)))
	for _, ct := range r.CompetitorTraces {
		b = wire.AppendString(b, ct.Kind)
		b = wire.AppendString(b, ct.CCA)
		b = wire.AppendFloats(b, ct.Mbps)
	}
	b = binary.AppendVarint(b, r.FramesSent)
	b = binary.AppendVarint(b, r.FramesDisplayed)
	b = binary.AppendVarint(b, r.FramesDropped)
	b = binary.AppendVarint(b, r.NackRetx)
	b = binary.AppendVarint(b, int64(r.TCPRetransmits))

	e := &r.Engine
	b = binary.AppendUvarint(b, e.EventsDispatched)
	b = binary.AppendUvarint(b, e.EventsScheduled)
	b = binary.AppendUvarint(b, e.EventsCancelled)
	b = binary.AppendUvarint(b, e.TimerMoves)
	b = binary.AppendVarint(b, int64(e.Pending))
	b = binary.AppendVarint(b, int64(e.PeakPending))
	b = binary.AppendVarint(b, int64(e.SimTime))
	b = binary.AppendVarint(b, int64(e.WallTime))

	im := &r.Impair
	b = binary.AppendVarint(b, int64(im.Packets))
	b = binary.AppendVarint(b, int64(im.LossDrops))
	b = binary.AppendVarint(b, int64(im.FlapDrops))
	b = binary.AppendVarint(b, int64(im.Duplicates))
	b = binary.AppendVarint(b, int64(im.Reordered))
	b = binary.AppendVarint(b, int64(im.Flaps))
	b = binary.AppendVarint(b, int64(im.Down))

	b = binary.AppendUvarint(b, uint64(len(r.Flows)))
	for i := range r.Flows {
		f := &r.Flows[i]
		b = wire.AppendString(b, f.Kind)
		b = wire.AppendString(b, f.CCA)
		b = binary.AppendVarint(b, int64(f.Flow))
		b = binary.AppendVarint(b, int64(f.Arrivals))
		b = wire.AppendFloat(b, f.ActiveSec)
		b = wire.AppendFloat(b, f.MeanMbps)
		b = wire.AppendFloat(b, f.SRTTms)
	}

	fs := &r.FlowSummary
	b = binary.AppendVarint(b, int64(fs.Flows))
	b = binary.AppendVarint(b, int64(fs.Streams))
	b = binary.AppendVarint(b, int64(fs.Active))
	for _, v := range [...]float64{
		fs.Jain, fs.TputP10Mbps, fs.TputP50Mbps, fs.TputP90Mbps,
		fs.RTTInflP10, fs.RTTInflP50, fs.RTTInflP90,
	} {
		b = wire.AppendFloat(b, v)
	}
	b = binary.AppendVarint(b, int64(fs.Starved))
	return wire.Seal(b)
}

// decodeRun parses a cache entry written by encodeRun back into a run
// result, with a zero Cfg (RunCached fills it in). It rejects a bad magic,
// a bad CRC, a non-minimal varint, a length prefix larger than the bytes
// left could hold, a truncated field, and trailing bytes, so a torn or
// hostile entry can neither decode nor force a large allocation. A
// zero-length slice decodes as nil.
func decodeRun(data []byte) (*RunResult, error) {
	d, ok := wire.Open(data, runMagic)
	if !ok {
		return nil, errBadRun
	}
	r := &RunResult{Bin: time.Duration(d.Varint())}
	r.GameMbps = d.Floats()
	r.TCPMbps = d.Floats()
	r.FPSBins = d.Floats()
	r.GameLossBins = d.Floats()
	r.TCPLossBins = d.Floats()
	if k := d.Count(2); k > 0 {
		r.RTT = make([]ping.Sample, k)
		for i := range r.RTT {
			r.RTT[i] = ping.Sample{At: sim.Time(d.Varint()), RTT: time.Duration(d.Varint())}
		}
	}
	if k := d.Count(3); k > 0 {
		r.CompetitorTraces = make([]CompetitorTrace, k)
		for i := range r.CompetitorTraces {
			ct := &r.CompetitorTraces[i]
			ct.Kind = d.Str()
			ct.CCA = d.Str()
			ct.Mbps = d.Floats()
		}
	}
	r.FramesSent = d.Varint()
	r.FramesDisplayed = d.Varint()
	r.FramesDropped = d.Varint()
	r.NackRetx = d.Varint()
	r.TCPRetransmits = d.Int()

	e := &r.Engine
	e.EventsDispatched = d.Uvarint()
	e.EventsScheduled = d.Uvarint()
	e.EventsCancelled = d.Uvarint()
	e.TimerMoves = d.Uvarint()
	e.Pending = d.Int()
	e.PeakPending = d.Int()
	e.SimTime = sim.Time(d.Varint())
	e.WallTime = time.Duration(d.Varint())

	im := &r.Impair
	im.Packets = d.Int()
	im.LossDrops = d.Int()
	im.FlapDrops = d.Int()
	im.Duplicates = d.Int()
	im.Reordered = d.Int()
	im.Flaps = d.Int()
	im.Down = time.Duration(d.Varint())

	// A flow record is at least two empty strings, two one-byte varints
	// and three floats.
	if k := d.Count(2 + 2 + 3*8); k > 0 {
		r.Flows = make([]FlowStats, k)
		for i := range r.Flows {
			f := &r.Flows[i]
			f.Kind = d.Str()
			f.CCA = d.Str()
			f.Flow = d.Int()
			f.Arrivals = d.Int()
			f.ActiveSec = d.Float()
			f.MeanMbps = d.Float()
			f.SRTTms = d.Float()
		}
	}

	fs := &r.FlowSummary
	fs.Flows = d.Int()
	fs.Streams = d.Int()
	fs.Active = d.Int()
	for _, v := range [...]*float64{
		&fs.Jain, &fs.TputP10Mbps, &fs.TputP50Mbps, &fs.TputP90Mbps,
		&fs.RTTInflP10, &fs.RTTInflP50, &fs.RTTInflP90,
	} {
		*v = d.Float()
	}
	fs.Starved = d.Int()

	if !d.Done() {
		return nil, errBadRun
	}
	return r, nil
}
