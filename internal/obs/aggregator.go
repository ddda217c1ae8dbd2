package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/runcache"
	"repro/internal/stats"
)

// SnapshotSchema tags serialised telemetry snapshots so gsreport can reject
// files from an incompatible revision.
const SnapshotSchema = "gs-telemetry-v1"

// PaperMetrics lists the deterministic per-run metrics the Aggregator
// sketches, in canonical order. These are pure functions of (config, seed) —
// the same discipline the run cache relies on — so their sketches are
// byte-comparable across worker counts and across cached/live replays.
var PaperMetrics = []string{
	"game_mbps", "tcp_mbps", "fairness", "rtt_ms", "fps", "loss_pct",
	"jain", "tput_p50_mbps", "rtt_infl_p50", "starved",
	"loss_drops", "flap_drops", "flaps", "down_s",
}

// EngineMetrics lists the wall-clock execution metrics sketched alongside.
// They depend on host load and scheduling, so they live in a separate
// snapshot section that byte-identity checks must exclude.
var EngineMetrics = []string{"events_per_s", "speedup", "wall_s"}

// paperSamples extracts the deterministic metric vector from a record. The
// jain / tput_p50_mbps / rtt_infl_p50 / starved entries exist only for
// N-flow population runs, and the impairer counters only for impaired or
// scheduled runs, so a paper-grid snapshot carries neither group.
func paperSamples(r *Record, f func(name string, v float64)) {
	f("game_mbps", r.GameMbps)
	f("tcp_mbps", r.TCPMbps)
	f("fairness", r.Fairness)
	f("rtt_ms", r.RTTMs)
	f("fps", r.FPS)
	f("loss_pct", r.LossPct)
	if r.Flows != nil {
		f("jain", r.Flows.Jain)
		f("tput_p50_mbps", r.Flows.TputP50)
		if r.Flows.RTTInflP50 > 0 {
			f("rtt_infl_p50", r.Flows.RTTInflP50)
		}
		f("starved", float64(r.Flows.Starved))
	}
	if r.Impair != nil {
		f("loss_drops", float64(r.Impair.LossDrops))
		f("flap_drops", float64(r.Impair.FlapDrops))
		f("flaps", float64(r.Impair.Flaps))
		f("down_s", r.Impair.DownSeconds)
	}
}

func engineSamples(r *Record, f func(name string, v float64)) {
	f("events_per_s", r.Engine.EventsPerSecond)
	f("speedup", r.Engine.Speedup)
	f("wall_s", r.Engine.WallSeconds)
}

// condAgg is the per-condition state: one MetricSketch per metric plus the
// reorder buffer that makes the fold order deterministic. Workers finish
// runs in scheduler order, but every run carries its grid iteration index;
// folding strictly in iteration order per condition makes each condition
// sketch — and therefore the whole snapshot — independent of worker count.
type condAgg struct {
	runs    int
	cached  int
	wall    time.Duration
	metrics map[string]*stats.MetricSketch
	engine  map[string]*stats.MetricSketch

	// next is the iteration the fold is waiting for; records arriving early
	// park in pending until the gap fills. Out-of-orderness is bounded by
	// the worker count, so pending stays tiny.
	next    int
	pending map[int][]*Record
}

// HealthPoint is one line of the JSONL health timeline: campaign progress
// and cache effectiveness, stamped with wall time since the campaign
// started.
type HealthPoint struct {
	TimeS    float64 `json:"t_s"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Pct      float64 `json:"pct"`
	ETAS     float64 `json:"eta_s"`
	RunsPerS float64 `json:"runs_per_s"`
	// Cache counters come from the injected CacheStats hook (zero when the
	// campaign runs uncached).
	CacheHits    uint64  `json:"cache_hits"`
	CacheLookups uint64  `json:"cache_lookups"`
	CacheHitPct  float64 `json:"cache_hit_pct"`
	Final        bool    `json:"final,omitempty"`
}

// CondSketches is one condition's slice of a Snapshot: deterministic paper
// metrics and wall-clock engine metrics, kept in separate groups so byte
// comparisons can target the former.
type CondSketches struct {
	Cond    string                         `json:"cond"`
	Runs    int                            `json:"runs"`
	Cached  int                            `json:"cached,omitempty"`
	WallS   float64                        `json:"wall_s"`
	Metrics map[string]*stats.MetricSketch `json:"metrics"`
	Engine  map[string]*stats.MetricSketch `json:"engine,omitempty"`
}

// Snapshot is the Aggregator's full exported state: per-condition sketches
// (sorted by condition), campaign-wide sketches (per-condition sketches
// merged in sorted order), and the wall-clock health section. The Conditions
// and Campaign fields are deterministic for a completed campaign — byte-
// identical across worker counts; Engine groups, Health and Cache are not.
type Snapshot struct {
	Schema      string  `json:"schema"`
	Total       int     `json:"total"`
	Done        int     `json:"done"`
	Cached      int     `json:"cached"`
	Interrupted bool    `json:"interrupted,omitempty"`
	ElapsedS    float64 `json:"elapsed_s"`

	Conditions []CondSketches                 `json:"conditions"`
	Campaign   map[string]*stats.MetricSketch `json:"campaign"`
	Engine     map[string]*stats.MetricSketch `json:"engine,omitempty"`

	Health *HealthPoint    `json:"health,omitempty"`
	Cache  *runcache.Stats `json:"cache,omitempty"`
}

// DeterministicJSON serialises only the worker-count-independent part of the
// snapshot: per-condition paper-metric sketches plus the campaign merge.
// Two completed runs of the same campaign grid marshal byte-identically
// here regardless of parallelism; wall-clock sections are excluded.
func (s *Snapshot) DeterministicJSON() ([]byte, error) {
	type detCond struct {
		Cond    string                         `json:"cond"`
		Runs    int                            `json:"runs"`
		Metrics map[string]*stats.MetricSketch `json:"metrics"`
	}
	det := struct {
		Schema     string                         `json:"schema"`
		Total      int                            `json:"total"`
		Done       int                            `json:"done"`
		Conditions []detCond                      `json:"conditions"`
		Campaign   map[string]*stats.MetricSketch `json:"campaign"`
	}{Schema: s.Schema, Total: s.Total, Done: s.Done, Campaign: s.Campaign}
	for _, c := range s.Conditions {
		det.Conditions = append(det.Conditions, detCond{Cond: c.Cond, Runs: c.Runs, Metrics: c.Metrics})
	}
	return json.Marshal(det)
}

// Aggregator is a Progress sink that folds every finished run's metrics into
// per-condition and campaign-wide MetricSketches — O(conditions) memory, no
// per-run records retained — and optionally emits a JSONL health timeline.
// It is goroutine-safe: sweeps call RunDone from worker goroutines.
//
// Determinism: each condition folds its runs strictly in iteration order via
// a reorder buffer, and the campaign-wide sketches are built at snapshot
// time by merging condition sketches in sorted-condition order, so the
// deterministic snapshot section is byte-identical however many workers the
// sweep used. Configure the exported knobs before the first sweep starts.
type Aggregator struct {
	// Compression is the t-digest δ for every sketch (0 = stats default).
	Compression float64
	// Timeline, when non-nil, receives JSONL HealthPoint lines. Every
	// throttles them (default 10s); a final line is always written at
	// SweepDone. Timeline writes are serialised under the Aggregator lock.
	Timeline io.Writer
	Every    time.Duration
	// CacheStats, when non-nil, is polled for run-cache counters to include
	// in timeline lines and snapshots.
	CacheStats func() runcache.Stats

	mu          sync.Mutex
	total       int
	done        int
	cached      int
	interrupted bool
	start       time.Time
	elapsed     time.Duration
	lastEmit    time.Time
	conds       map[string]*condAgg
}

// NewAggregator returns an Aggregator with default settings.
func NewAggregator() *Aggregator {
	return &Aggregator{conds: make(map[string]*condAgg)}
}

func (a *Aggregator) cond(name string) *condAgg {
	c, ok := a.conds[name]
	if !ok {
		c = &condAgg{
			metrics: make(map[string]*stats.MetricSketch, len(PaperMetrics)),
			engine:  make(map[string]*stats.MetricSketch, len(EngineMetrics)),
			pending: make(map[int][]*Record),
		}
		a.conds[name] = c
	}
	return c
}

// SweepStart accumulates the new sweep's run count into the campaign total.
// A campaign may chain several sweeps (contended + solo + baseline); each
// sweep restarts iteration numbering, so every condition's reorder cursor
// rewinds after flushing anything a cancelled predecessor left parked.
func (a *Aggregator) SweepStart(total int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total += total
	if a.start.IsZero() {
		a.start = time.Now()
	}
	for _, c := range a.conds {
		c.flushPending(a.Compression)
		c.next = 0
	}
}

// RunDone folds one finished run into the sketches. Safe for concurrent use.
func (a *Aggregator) RunDone(u Update) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.done++
	a.elapsed = time.Since(a.start)
	if r := u.Record; r != nil {
		c := a.cond(r.Cond)
		c.runs++
		c.wall += u.RunWall
		if r.Cached {
			c.cached++
			a.cached++
		}
		switch {
		case r.Iteration == c.next:
			c.fold(r, a.Compression)
			c.next++
			for {
				parked, ok := c.pending[c.next]
				if !ok {
					break
				}
				delete(c.pending, c.next)
				for _, p := range parked {
					c.fold(p, a.Compression)
				}
				c.next++
			}
		case r.Iteration < c.next:
			// Can't happen for a well-formed sweep; fold rather than drop.
			c.fold(r, a.Compression)
		default:
			c.pending[r.Iteration] = append(c.pending[r.Iteration], r)
		}
	}
	a.maybeEmitLocked(u, false)
}

// SweepDone flushes every reorder buffer (a cancelled sweep leaves gaps; the
// leftovers fold in ascending-iteration order so the final state is still a
// deterministic function of the completed-run set) and emits a final
// timeline line.
func (a *Aggregator) SweepDone(interrupted bool, elapsed time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if interrupted {
		a.interrupted = true
	}
	a.elapsed = time.Since(a.start)
	for _, c := range a.conds {
		c.flushPending(a.Compression)
	}
	a.maybeEmitLocked(Update{}, true)
}

// fold adds one record's samples to the condition sketches.
func (c *condAgg) fold(r *Record, compression float64) {
	add := func(group map[string]*stats.MetricSketch) func(string, float64) {
		return func(name string, v float64) {
			ms, ok := group[name]
			if !ok {
				ms = stats.NewMetricSketch(compression)
				group[name] = ms
			}
			ms.Add(v)
		}
	}
	paperSamples(r, add(c.metrics))
	engineSamples(r, add(c.engine))
}

// flushPending folds parked records in ascending iteration order.
func (c *condAgg) flushPending(compression float64) {
	if len(c.pending) == 0 {
		return
	}
	iters := make([]int, 0, len(c.pending))
	for it := range c.pending {
		iters = append(iters, it)
	}
	sort.Ints(iters)
	for _, it := range iters {
		for _, r := range c.pending[it] {
			c.fold(r, compression)
		}
		delete(c.pending, it)
	}
}

// healthLocked assembles the current HealthPoint. Caller holds a.mu.
func (a *Aggregator) healthLocked(final bool) HealthPoint {
	h := HealthPoint{
		TimeS: a.elapsed.Seconds(),
		Done:  a.done,
		Total: a.total,
		Final: final,
	}
	if a.total > 0 {
		h.Pct = 100 * float64(a.done) / float64(a.total)
	}
	if el := a.elapsed.Seconds(); el > 0 && a.done > 0 {
		h.RunsPerS = float64(a.done) / el
		h.ETAS = float64(a.total-a.done) / h.RunsPerS
	}
	if a.CacheStats != nil {
		cs := a.CacheStats()
		h.CacheHits = cs.Hits
		h.CacheLookups = cs.Lookups()
		h.CacheHitPct = cs.HitRate()
	}
	return h
}

// maybeEmitLocked writes a timeline line if due. Caller holds a.mu.
func (a *Aggregator) maybeEmitLocked(u Update, final bool) {
	if a.Timeline == nil {
		return
	}
	every := a.Every
	if every <= 0 {
		every = 10 * time.Second
	}
	now := time.Now()
	if !final && !a.lastEmit.IsZero() && now.Sub(a.lastEmit) < every {
		return
	}
	a.lastEmit = now
	h := a.healthLocked(final)
	if data, err := json.Marshal(h); err == nil {
		fmt.Fprintf(a.Timeline, "%s\n", data)
	}
}

// Done and Total report campaign progress.
func (a *Aggregator) Done() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.done
}

// Total reports the accumulated campaign size across sweeps.
func (a *Aggregator) Total() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Snapshot exports the current state. The per-condition sketches are cloned
// (with any still-parked records folded into the clones in iteration order,
// so a mid-sweep snapshot misses nothing), and campaign-wide sketches are
// built by merging condition sketches in sorted-condition order.
func (a *Aggregator) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()

	snap := &Snapshot{
		Schema:      SnapshotSchema,
		Total:       a.total,
		Done:        a.done,
		Cached:      a.cached,
		Interrupted: a.interrupted,
		ElapsedS:    a.elapsed.Seconds(),
		Campaign:    make(map[string]*stats.MetricSketch),
		Engine:      make(map[string]*stats.MetricSketch),
	}

	names := make([]string, 0, len(a.conds))
	for name := range a.conds {
		names = append(names, name)
	}
	sort.Strings(names)

	cloneGroup := func(g map[string]*stats.MetricSketch) map[string]*stats.MetricSketch {
		out := make(map[string]*stats.MetricSketch, len(g))
		for k, v := range g {
			out[k] = v.Clone()
		}
		return out
	}

	for _, name := range names {
		c := a.conds[name]
		cs := CondSketches{
			Cond:    name,
			Runs:    c.runs,
			Cached:  c.cached,
			WallS:   c.wall.Seconds(),
			Metrics: cloneGroup(c.metrics),
			Engine:  cloneGroup(c.engine),
		}
		if len(c.pending) > 0 {
			// Fold parked records into the clones only — the live reorder
			// buffer keeps waiting for its gap.
			tmp := condAgg{metrics: cs.Metrics, engine: cs.Engine}
			iters := make([]int, 0, len(c.pending))
			for it := range c.pending {
				iters = append(iters, it)
			}
			sort.Ints(iters)
			for _, it := range iters {
				for _, r := range c.pending[it] {
					tmp.fold(r, a.Compression)
				}
			}
		}
		snap.Conditions = append(snap.Conditions, cs)

		mergeInto := func(dst map[string]*stats.MetricSketch, src map[string]*stats.MetricSketch) {
			ks := make([]string, 0, len(src))
			for k := range src {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			for _, k := range ks {
				ms, ok := dst[k]
				if !ok {
					ms = stats.NewMetricSketch(a.Compression)
					dst[k] = ms
				}
				ms.Merge(src[k])
			}
		}
		mergeInto(snap.Campaign, cs.Metrics)
		mergeInto(snap.Engine, cs.Engine)
	}

	h := a.healthLocked(a.done == a.total && a.total > 0)
	snap.Health = &h
	if a.CacheStats != nil {
		cs := a.CacheStats()
		snap.Cache = &cs
	}
	return snap
}

// WriteSnapshot persists a snapshot as indented JSON at path.
func WriteSnapshot(path string, snap *Snapshot) error {
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSnapshot loads a snapshot written by WriteSnapshot.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("obs: decode snapshot %s: %w", path, err)
	}
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("obs: snapshot %s has schema %q, want %q", path, snap.Schema, SnapshotSchema)
	}
	return &snap, nil
}
