// Package scenario implements the declarative experiment spec: a small
// INI-style file format describing topology (links and a routed path with
// per-hop shaping), flows (kind, congestion control, start/stop schedule,
// N-flow populations) and impairments (static profiles plus the mid-run
// schedule language), compiled into the existing experiment.RunConfig —
// so a new experiment needs a text file, not Go code.
//
// The same package hosts the seed-driven chaos campaign generator
// (chaos.go) and the metamorphic invariant suite (invariants.go) that
// turn the one-shot conformance battery into a continuously exercised
// property suite. See docs/SCENARIOS.md for the grammar and a worked
// example.
package scenario

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/ini"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Parser safety bounds beyond the lexer's size limits (see internal/ini):
// anything past them is hostile or corrupt input and is rejected rather
// than amplified into memory or CPU (the fuzz harness leans on this).
const (
	maxLinks      = 64
	maxHops       = 64
	maxFlows      = 64
	maxScheduleBy = 4096 // schedule steps per spec
	maxIterations = 1000000
)

// Link is one named hop of the topology: a shaped, delayed segment. The
// bottleneck hop (minimum rate along the path) contributes the queue
// sizing and AQM discipline; every hop contributes its propagation delay.
type Link struct {
	Name  string
	Rate  units.Rate
	Delay time.Duration
	// QueueMult sizes the hop's queue in BDP multiples (of the whole
	// path's base RTT, following the paper's `queue = N × BDP` setup).
	// Zero means unset; only the bottleneck hop's value is used.
	QueueMult float64
	// AQM is the hop's queue discipline; empty means drop-tail. Only the
	// bottleneck hop's value is used.
	AQM string
}

// Flow is one declared cross-traffic source.
type Flow struct {
	Name string
	// Kind is "iperf", "dash", or "videocall".
	Kind string
	// CCA is the TCP congestion control for iperf/dash flows.
	CCA string
	// Start/Stop are trace offsets; zero means the timeline default.
	Start, Stop time.Duration
}

// Spec is a parsed scenario file: everything needed to construct
// experiment.RunConfig values with zero Go code.
type Spec struct {
	// Name identifies the scenario (the [run] name key, or the file
	// basename when parsed from a file).
	Name string
	// Seed is the base run seed; Iterations > 1 derives per-iteration
	// seeds the same way sweeps do.
	Seed       uint64
	Iterations int
	// Scale compresses the paper timeline (1.0 = the full 540 s trace).
	Scale float64

	System gamestream.System

	Links []Link
	// Path lists hop names in order; BaseRTT is twice the summed one-way
	// delays, capacity is the minimum hop rate.
	Path []string

	Flows      []Flow
	Impair     netem.Impairment
	Schedule   []experiment.ScheduleStep
	Population experiment.FlowPopulation
}

// ParseFile parses a scenario file from disk, naming it after the file.
func ParseFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sp, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sp.Name == "" {
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		sp.Name = strings.TrimSuffix(base, ".scn")
	}
	return sp, nil
}

// Parse reads a scenario spec. The format is line-oriented:
//
//	# comment (full-line or trailing)
//	[section]            — run, game, path, impair, schedule, population
//	[link <name>]        — one topology hop
//	[flow <name>]        — one cross-traffic source
//	key = value
//
// Sections may appear in any order; links and flows keep file order.
// Unknown sections or keys, duplicate definitions, and out-of-range
// values (NaN rates, negative delays, cyclic paths) are errors — a spec
// either compiles exactly or not at all.
func Parse(r io.Reader) (*Spec, error) {
	sp := &Spec{Iterations: 1, Scale: 1}
	var (
		curLink  *Link
		curFlow  *Flow
		schedule []string
	)
	seenSec := map[string]bool{}
	flowDefined := map[string]bool{}
	err := ini.Lex(r, ini.Grammar{
		Section: func(header string) (string, string, error) {
			kind, name, _ := strings.Cut(header, " ")
			kind = strings.ToLower(strings.TrimSpace(kind))
			name = strings.TrimSpace(name)
			switch kind {
			case "run", "game", "path", "impair", "schedule", "population":
				if name != "" {
					return "", "", fmt.Errorf("section [%s] takes no name", kind)
				}
				if seenSec[kind] {
					return "", "", fmt.Errorf("duplicate section [%s]", kind)
				}
				seenSec[kind] = true
				curLink, curFlow = nil, nil
			case "link":
				if err := ini.CheckName(name); err != nil {
					return "", "", fmt.Errorf("link name: %v", err)
				}
				if len(sp.Links) >= maxLinks {
					return "", "", fmt.Errorf("more than %d links", maxLinks)
				}
				if sp.linkIndex(name) >= 0 {
					return "", "", fmt.Errorf("duplicate link %q", name)
				}
				sp.Links = append(sp.Links, Link{Name: name})
				curLink, curFlow = &sp.Links[len(sp.Links)-1], nil
			case "flow":
				if err := ini.CheckName(name); err != nil {
					return "", "", fmt.Errorf("flow name: %v", err)
				}
				if len(sp.Flows) >= maxFlows {
					return "", "", fmt.Errorf("more than %d flows", maxFlows)
				}
				if flowDefined[name] {
					return "", "", fmt.Errorf("duplicate flow %q", name)
				}
				flowDefined[name] = true
				sp.Flows = append(sp.Flows, Flow{Name: name, Kind: "iperf"})
				curFlow, curLink = &sp.Flows[len(sp.Flows)-1], nil
			default:
				return "", "", fmt.Errorf("unknown section [%s]", header)
			}
			return kind, name, nil
		},
		// Schedule steps are the one repeatable key; everything else must
		// be unique within its section.
		Repeatable: func(kind, key string) bool { return kind == "schedule" && key == "step" },
		Key: func(kind, key, val string) error {
			switch kind {
			case "run":
				return sp.setRunKey(key, val)
			case "game":
				return sp.setGameKey(key, val)
			case "link":
				return curLink.setKey(key, val)
			case "path":
				return sp.setPathKey(key, val)
			case "flow":
				return curFlow.setKey(key, val)
			case "impair":
				return sp.setImpairKey(key, val)
			case "schedule":
				if key != "step" {
					return fmt.Errorf("unknown key %q (want step)", key)
				}
				if len(schedule) >= maxScheduleBy {
					return fmt.Errorf("more than %d schedule steps", maxScheduleBy)
				}
				schedule = append(schedule, val)
				return nil
			}
			return sp.setPopulationKey(key, val)
		},
	})
	if err != nil {
		return nil, err
	}

	if len(schedule) > 0 {
		steps, err := experiment.ParseSchedule(strings.Join(schedule, "; "))
		if err != nil {
			return nil, err
		}
		sp.Schedule = steps
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp *Spec) linkIndex(name string) int {
	for i := range sp.Links {
		if sp.Links[i].Name == name {
			return i
		}
	}
	return -1
}

func (sp *Spec) setRunKey(key, val string) error {
	switch key {
	case "name":
		if err := ini.CheckName(val); err != nil {
			return err
		}
		sp.Name = val
		return nil
	case "seed":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", val)
		}
		sp.Seed = v
		return nil
	case "iterations":
		v, err := strconv.Atoi(val)
		if err != nil || v < 1 || v > maxIterations {
			return fmt.Errorf("iterations %q outside [1,%d]", val, maxIterations)
		}
		sp.Iterations = v
		return nil
	case "scale":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > 100 {
			return fmt.Errorf("scale %q outside (0,100]", val)
		}
		sp.Scale = v
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}

func (sp *Spec) setGameKey(key, val string) error {
	if key != "system" {
		return fmt.Errorf("unknown key %q (want system)", key)
	}
	sys, err := gamestream.ParseSystem(val)
	if err != nil {
		return err
	}
	sp.System = sys
	return nil
}

func (l *Link) setKey(key, val string) error {
	switch key {
	case "rate":
		r, err := experiment.ParseRate(val)
		if err != nil {
			return err
		}
		if r <= 0 {
			return fmt.Errorf("rate %q must be positive", val)
		}
		l.Rate = r
		return nil
	case "delay":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 || d > time.Hour {
			return fmt.Errorf("delay %q outside [0,1h]", val)
		}
		l.Delay = d
		return nil
	case "queue":
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.ToLower(val), "xbdp"), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > 1000 {
			return fmt.Errorf("queue %q outside (0,1000] BDP multiples", val)
		}
		l.QueueMult = v
		return nil
	case "aqm":
		if err := experiment.CheckAQM(val); err != nil {
			return err
		}
		l.AQM = val
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}

func (sp *Spec) setPathKey(key, val string) error {
	if key != "hops" {
		return fmt.Errorf("unknown key %q (want hops)", key)
	}
	for _, h := range strings.Split(val, ",") {
		h = strings.TrimSpace(h)
		if err := ini.CheckName(h); err != nil {
			return fmt.Errorf("hop: %v", err)
		}
		if len(sp.Path) >= maxHops {
			return fmt.Errorf("more than %d hops", maxHops)
		}
		sp.Path = append(sp.Path, h)
	}
	return nil
}

func (f *Flow) setKey(key, val string) error {
	switch key {
	case "kind":
		switch val {
		case experiment.CompIperf, experiment.CompDash, experiment.CompVideoCall:
			f.Kind = val
			return nil
		}
		return fmt.Errorf("unknown kind %q (want iperf, dash, or videocall)", val)
	case "cca":
		if !tcp.Known(val) {
			return fmt.Errorf("unknown cca %q", val)
		}
		f.CCA = val
		return nil
	case "start", "stop":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 || d > 24*time.Hour {
			return fmt.Errorf("%s %q outside [0,24h]", key, val)
		}
		if key == "start" {
			f.Start = d
		} else {
			f.Stop = d
		}
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}

func (sp *Spec) setImpairKey(key, val string) error {
	switch key {
	case "loss":
		return experiment.ParseLoss(val, &sp.Impair)
	case "jitter":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 || d > time.Minute {
			return fmt.Errorf("jitter %q outside [0,1m]", val)
		}
		sp.Impair.Jitter = d
		return nil
	case "reorder":
		switch val {
		case "true", "yes", "on":
			sp.Impair.Reorder = true
		case "false", "no", "off":
			sp.Impair.Reorder = false
		default:
			return fmt.Errorf("reorder %q (want true/false)", val)
		}
		return nil
	case "duplicate":
		p, err := experiment.ParseProb(val)
		if err != nil {
			return err
		}
		sp.Impair.Duplicate = p
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}

func (sp *Spec) setPopulationKey(key, val string) error {
	switch key {
	case "flows", "streams":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad %s %q", key, val)
		}
		if key == "flows" {
			sp.Population.Flows = v
		} else {
			sp.Population.Streams = v
		}
		return sp.Population.Validate()
	case "mix":
		mix, err := experiment.ParseMix(val)
		if err != nil {
			return err
		}
		sp.Population.Mix = mix
		return nil
	case "mean_on", "mean_off":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("bad %s %q", key, val)
		}
		if key == "mean_on" {
			sp.Population.MeanOn = d
		} else {
			sp.Population.MeanOff = d
		}
		return sp.Population.Validate()
	case "shape":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 1 || v > 100 {
			return fmt.Errorf("shape %q outside (1,100]", val)
		}
		sp.Population.Shape = v
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}

// validate cross-checks the assembled spec: the topology must resolve to
// an acyclic path with a bottleneck, the flows must agree on a contention
// window inside the trace, and the game system must be declared.
func (sp *Spec) validate() error {
	if sp.System == "" {
		return fmt.Errorf("missing [game] system")
	}
	if len(sp.Links) == 0 {
		return fmt.Errorf("no [link] sections: the topology needs at least a bottleneck hop")
	}
	// Resolve the path. A single link needs no [path]; several do, since
	// hop order determines nothing today but the declared topology must
	// still be explicit and acyclic.
	if len(sp.Path) == 0 {
		if len(sp.Links) > 1 {
			return fmt.Errorf("%d links but no [path]: declare hops = <name>,<name>,...", len(sp.Links))
		}
		sp.Path = []string{sp.Links[0].Name}
	}
	seen := map[string]bool{}
	for _, hop := range sp.Path {
		if sp.linkIndex(hop) < 0 {
			return fmt.Errorf("path hop %q is not a declared link", hop)
		}
		if seen[hop] {
			return fmt.Errorf("path visits link %q twice: topology must be acyclic", hop)
		}
		seen[hop] = true
	}
	for i := range sp.Links {
		l := &sp.Links[i]
		if l.Rate <= 0 && seen[l.Name] {
			return fmt.Errorf("link %q has no rate", l.Name)
		}
	}
	// Flow windows must agree: the experiment timeline has one global
	// contention window.
	var start, stop time.Duration
	for i := range sp.Flows {
		f := &sp.Flows[i]
		if f.Kind == experiment.CompVideoCall && f.CCA != "" {
			return fmt.Errorf("flow %q: videocall takes no CCA", f.Name)
		}
		if (f.Kind == experiment.CompIperf || f.Kind == experiment.CompDash) && f.CCA == "" {
			f.CCA = tcp.AlgCubic
		}
		if (f.Start != 0 || f.Stop != 0) && f.Start >= f.Stop {
			return fmt.Errorf("flow %q: start %v not before stop %v", f.Name, f.Start, f.Stop)
		}
		if f.Start != 0 || f.Stop != 0 {
			if start == 0 && stop == 0 {
				start, stop = f.Start, f.Stop
			} else if f.Start != start || f.Stop != stop {
				return fmt.Errorf("flow %q: window %v-%v disagrees with %v-%v (the timeline has one contention window)",
					f.Name, f.Start, f.Stop, start, stop)
			}
		}
	}
	tl := sp.timeline()
	if stop != 0 && stop > tl.TraceEnd {
		return fmt.Errorf("flow window ends at %v, after the %v trace end", stop, tl.TraceEnd)
	}
	for _, st := range sp.Schedule {
		if st.At > tl.TraceEnd {
			return fmt.Errorf("schedule step at %v is after the %v trace end", st.At, tl.TraceEnd)
		}
	}
	return nil
}

// timeline resolves the spec's run timeline: the paper timeline at Scale,
// with the contention window overridden when flows declare one.
func (sp *Spec) timeline() metrics.Timeline {
	tl := metrics.PaperTimeline.Scale(sp.Scale)
	var start, stop time.Duration
	for _, f := range sp.Flows {
		if f.Start != 0 || f.Stop != 0 {
			start, stop = f.Start, f.Stop
			break
		}
	}
	if stop != 0 {
		tl.FlowStart, tl.FlowStop = start, stop
	}
	return tl
}

// BaseRTT is the path's no-load round-trip: twice the summed hop delays.
func (sp *Spec) BaseRTT() time.Duration {
	var owd time.Duration
	for _, hop := range sp.Path {
		owd += sp.Links[sp.linkIndex(hop)].Delay
	}
	return 2 * owd
}

// bottleneck returns the minimum-rate hop (first wins on ties).
func (sp *Spec) bottleneck() *Link {
	var bn *Link
	for _, hop := range sp.Path {
		l := &sp.Links[sp.linkIndex(hop)]
		if bn == nil || l.Rate < bn.Rate {
			bn = l
		}
	}
	return bn
}

// RunConfig compiles the spec into the run configuration for iteration
// iter (0-based): the same mapping for every iteration except the seed,
// which is derived exactly like sweep position seeds so a one-iteration
// spec reproduces the equivalent flag-built run bit for bit.
func (sp *Spec) RunConfig(iter int) experiment.RunConfig {
	bn := sp.bottleneck()
	cond := experiment.Condition{
		System:    sp.System,
		Capacity:  bn.Rate,
		QueueMult: bn.QueueMult,
		AQM:       bn.AQM,
		Impair:    sp.Impair,
	}
	if cond.QueueMult == 0 {
		cond.QueueMult = 2
	}
	cfg := experiment.RunConfig{
		Condition: cond,
		Timeline:  sp.timeline(),
		Seed:      sp.Seed + uint64(iter),
		Schedule:  sp.Schedule,
		BaseRTT:   sp.BaseRTT(),
	}
	// A single iperf flow maps onto the paper's Condition.CCA slot (so
	// the condition string, seeds, and runlog match the flag-built
	// equivalent); anything else becomes an explicit competitor mix.
	if len(sp.Flows) == 1 && sp.Flows[0].Kind == experiment.CompIperf {
		cfg.CCA = sp.Flows[0].CCA
	} else if len(sp.Flows) > 0 {
		comps := make([]experiment.Competitor, len(sp.Flows))
		for i, f := range sp.Flows {
			comps[i] = experiment.Competitor{Kind: f.Kind, CCA: f.CCA}
		}
		cfg.Competitors = comps
	}
	cfg.Population = sp.Population
	return cfg
}
