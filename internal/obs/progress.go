package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Update describes the state of a sweep just after one run completed.
type Update struct {
	// Done and Total count completed runs against the campaign size.
	Done, Total int
	// Index is the finished run's position in the sweep's job list: runs
	// complete in any order across workers, and a sink that must keep job
	// order (a campaign shard's runlog) files each one by its index.
	Index int
	// Cond is the finished run's condition string; Seed and Iteration
	// identify the run within its cell.
	Cond      string
	Seed      uint64
	Iteration int
	// RunWall is the wall-clock time the finished run took.
	RunWall time.Duration
	// Elapsed is wall-clock time since the sweep started.
	Elapsed time.Duration
	// ETA is the projected remaining wall time, extrapolated from the
	// mean per-run cost so far. Zero when Done == Total.
	ETA time.Duration
	// Record, when non-nil, is the finished run's structured record. Sinks
	// that log or aggregate runs (JSONL, Aggregator) read it; plain
	// progress printers ignore it.
	Record *Record
}

// Progress is the sink a sweep reports to while it executes. SweepStart is
// called once before any run, RunDone after every completed run (from
// worker goroutines — implementations must be goroutine-safe), and
// SweepDone exactly once when the sweep returns, with interrupted true if
// the sweep was cancelled before finishing.
type Progress interface {
	SweepStart(total int)
	RunDone(Update)
	SweepDone(interrupted bool, elapsed time.Duration)
}

// Printer is a Progress that renders throttled single-line updates to a
// writer (typically os.Stderr) and accumulates per-condition wall time.
// The zero value is not usable; create one with NewPrinter.
type Printer struct {
	// Every is the minimum interval between printed lines; updates
	// arriving sooner are folded into the counters silently. NewPrinter
	// sets 1 second.
	Every time.Duration

	w        io.Writer
	mu       sync.Mutex
	total    int
	last     time.Time
	condWall map[string]time.Duration
}

// NewPrinter returns a Printer writing to w at most once per second.
func NewPrinter(w io.Writer) *Printer {
	return &Printer{w: w, Every: time.Second, condWall: make(map[string]time.Duration)}
}

// SweepStart announces the campaign size.
func (p *Printer) SweepStart(total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = total
	p.last = time.Now()
	fmt.Fprintf(p.w, "sweep: starting %d runs\n", total)
}

// RunDone folds one run into the counters and prints a progress line if
// enough wall time has passed since the last one (or the sweep finished).
func (p *Printer) RunDone(u Update) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.condWall[u.Cond] += u.RunWall
	now := time.Now()
	if u.Done < u.Total && now.Sub(p.last) < p.Every {
		return
	}
	p.last = now
	fmt.Fprintf(p.w, "sweep: %d/%d (%.1f%%) %s elapsed %s eta %s\n",
		u.Done, u.Total, 100*float64(u.Done)/float64(u.Total),
		u.Cond, round(u.Elapsed), round(u.ETA))
}

// SweepDone prints the closing summary and the per-condition wall-time
// breakdown (the slowest three conditions).
func (p *Printer) SweepDone(interrupted bool, elapsed time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	state := "done"
	if interrupted {
		state = "interrupted"
	}
	fmt.Fprintf(p.w, "sweep: %s after %s (%d conditions touched)\n", state, round(elapsed), len(p.condWall))

	type cw struct {
		cond string
		wall time.Duration
	}
	var byWall []cw
	for c, w := range p.condWall {
		byWall = append(byWall, cw{c, w})
	}
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wall > byWall[j].wall })
	for _, e := range byWall[:min(3, len(byWall))] {
		fmt.Fprintf(p.w, "sweep:   %-28s %s\n", e.cond, round(e.wall))
	}
}

// CondWall returns a copy of the accumulated per-condition wall times.
func (p *Printer) CondWall() map[string]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]time.Duration, len(p.condWall))
	for c, w := range p.condWall {
		out[c] = w
	}
	return out
}

// multiProgress fans every Progress callback out to several sinks, in order.
type multiProgress []Progress

func (m multiProgress) SweepStart(total int) {
	for _, p := range m {
		p.SweepStart(total)
	}
}

func (m multiProgress) RunDone(u Update) {
	for _, p := range m {
		p.RunDone(u)
	}
}

func (m multiProgress) SweepDone(interrupted bool, elapsed time.Duration) {
	for _, p := range m {
		p.SweepDone(interrupted, elapsed)
	}
}

// MultiProgress tees sweep progress to every non-nil sink — e.g. a Printer
// for the terminal plus an Aggregator for telemetry. Nil sinks are dropped;
// with zero or one survivor it returns nil or the survivor unwrapped.
func MultiProgress(sinks ...Progress) Progress {
	var live multiProgress
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// round trims durations to a display-friendly resolution.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second)
	case d >= time.Second:
		return d.Round(100 * time.Millisecond)
	default:
		return d.Round(time.Millisecond)
	}
}
