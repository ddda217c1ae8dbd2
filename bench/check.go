package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/runcache"
)

// checker counts checked operations and the ones whose outputs were wrong.
// An operation is one run or one campaign; it fails when any of its checks
// fails.
type checker struct {
	attempted, failed int
	problems          []string
}

// op records one checked operation; err joins everything wrong with it.
func (c *checker) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.problems) < 20 {
			c.problems = append(c.problems, err.Error())
		}
	}
}

// checkRecord tests that a run's headline numbers are physically possible:
// a finite game bitrate in (0, capacity] — where the shaper's token bucket
// may add one burst (plus the packet in flight) over the measurement
// window — a positive frame rate, and a mean ping RTT no lower than the
// path's base RTT.
func checkRecord(r obs.Record, baseRTT, window time.Duration) error {
	var errs []error
	limit := r.CapacityMbps + float64(defaultBurst+packet.MTU)*8/window.Seconds()/1e6
	if math.IsNaN(r.GameMbps) || math.IsInf(r.GameMbps, 0) || r.GameMbps <= 0 || r.GameMbps > limit {
		errs = append(errs, fmt.Errorf("%s seed %d: game bitrate %.3f Mb/s outside (0, %.3f]", r.Cond, r.Seed, r.GameMbps, limit))
	}
	if !(r.FPS > 0) {
		errs = append(errs, fmt.Errorf("%s seed %d: frame rate %.3f not positive", r.Cond, r.Seed, r.FPS))
	}
	if base := float64(baseRTT) / float64(time.Millisecond); !(r.RTTMs >= base) {
		errs = append(errs, fmt.Errorf("%s seed %d: mean RTT %.3f ms below base RTT %.3f ms", r.Cond, r.Seed, r.RTTMs, base))
	}
	return errors.Join(errs...)
}

// window is the measurement window of a run's record.
func window(tl metrics.Timeline) time.Duration {
	from, to := tl.FairnessWindow()
	return to - from
}

// The base RTT and shaper burst of every run that does not set them.
var (
	defaultBaseRTT = experiment.RunConfig{}.Defaults().BaseRTT
	defaultBurst   = experiment.RunConfig{}.Defaults().Burst
)

// checkCache tests a campaign's run-cache activity: every cell must be a
// hit (warm) or a miss that was stored (cold), with no errors. A discarded
// entry counts as an error, so no discards are allowed either.
func checkCache(d runcache.Stats, cells int, warm bool) error {
	want := runcache.Stats{Misses: uint64(cells), Stored: uint64(cells)}
	if warm {
		want = runcache.Stats{Hits: uint64(cells)}
	}
	got := runcache.Stats{Hits: d.Hits, Misses: d.Misses, Stored: d.Stored, Errors: d.Errors, Bypassed: d.Bypassed}
	if got != want {
		return fmt.Errorf("run cache: %d hits, %d misses, %d stored, %d errors, %d bypassed; want %d hits, %d misses, %d stored",
			d.Hits, d.Misses, d.Stored, d.Errors, d.Bypassed, want.Hits, want.Misses, want.Stored)
	}
	return nil
}

// fingerprint is what must repeat exactly when one run is executed twice:
// the engine counters (wall time excluded) and the run record (wall-clock
// fields excluded). %v prints floats in their shortest exact form, NaN
// included.
func fingerprint(res *experiment.RunResult, rec obs.Record) string {
	st := res.Engine
	st.WallTime = 0
	rec.Engine.WallSeconds, rec.Engine.Speedup, rec.Engine.EventsPerSecond = 0, 0, 0
	var imp obs.ImpairMeta
	var flows obs.FlowsMeta
	if rec.Impair != nil {
		imp = *rec.Impair
	}
	if rec.Flows != nil {
		flows = *rec.Flows
	}
	rec.Impair, rec.Flows = nil, nil
	return fmt.Sprintf("%+v|%+v|%+v|%+v", st, rec, imp, flows)
}

// repeats remembers each run's fingerprint by condition and seed, so a run
// executed again can be compared with its first execution.
type repeats map[string]string

// check records the run and reports whether it was seen before; a seen run
// must match its earlier fingerprint.
func (rp repeats) check(res *experiment.RunResult, rec obs.Record) (seen bool, err error) {
	key := fmt.Sprintf("%s#%d", res.Cfg.Condition, res.Cfg.Seed)
	fp := fingerprint(res, rec)
	prev, seen := rp[key]
	if !seen {
		rp[key] = fp
		return false, nil
	}
	if prev != fp {
		return true, fmt.Errorf("%s seed %d: repeat differs from first execution (events %d)", res.Cfg.Condition, res.Cfg.Seed, res.Engine.EventsDispatched)
	}
	return true, nil
}

// sameDet compares a campaign's merged.det.json with the reference.
func sameDet(got, ref []byte, what string) error {
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("%s merged.det.json differs from the reference (%d vs %d bytes)", what, len(got), len(ref))
	}
	return nil
}
