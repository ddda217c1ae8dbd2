package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/ini"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Campaign modes.
const (
	ModeGrid = "grid" // full factorial over the [grid] axes
	ModeMC   = "mc"   // Monte-Carlo draws from the [mc] distributions
)

// Parser safety bounds beyond the lexer's size limits (see internal/ini):
// anything past them is hostile or corrupt input and is rejected rather
// than amplified into memory or CPU (the fuzz harness leans on this).
const (
	maxAxis     = 64      // entries per grid axis
	maxDistSegs = 256     // segments per distribution
	maxCells    = 2 << 20 // total runs per campaign
	maxShards   = 4096
)

// Spec is a parsed campaign file: everything that determines the campaign's
// cell list. Its canonical rendering (Canonical) is the campaign's identity
// — two specs with the same canonical text expand to the same cells, seeds
// included.
type Spec struct {
	// Name identifies the campaign; it feeds the campaign ID, so renaming a
	// spec yields a fresh campaign directory over the same (shared) cache.
	Name string
	// Seed derives every per-cell seed deterministically.
	Seed uint64
	// Mode is ModeGrid or ModeMC.
	Mode string
	// Iterations is the per-cell repeat count (grid mode).
	Iterations int
	// Draws is the Monte-Carlo sample count (mc mode).
	Draws int
	// Scale compresses the paper timeline (1.0 = the full 540 s trace).
	Scale float64
	// Shards is the number of work units the cells partition into.
	Shards int

	// Grid axes (grid mode).
	Systems    []gamestream.System
	CCAs       []string // "" means no competing flow (spelled "solo")
	Capacities []units.Rate
	QueueMults []float64
	AQM        string

	// Empirical distributions (mc mode): bottleneck rate in Mb/s, base RTT
	// in ms, and queue size in BDP multiples.
	Rate  *stats.Piecewise
	RTT   *stats.Piecewise
	Queue *stats.Piecewise
}

// ParseSpecFile parses a campaign file from disk, naming an unnamed
// campaign after the file.
func ParseSpecFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sp, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sp.Name == "" {
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		sp.Name = strings.TrimSuffix(base, ".campaign")
		if err := ini.CheckName(sp.Name); err != nil {
			return nil, fmt.Errorf("%s: campaign name from filename: %v", path, err)
		}
	}
	return sp, nil
}

// ParseSpec reads a campaign spec. The format is line-oriented:
//
//	# comment (full-line or trailing)
//	[campaign]                — name, seed, mode, iterations, draws, scale, shards
//	[grid]                    — systems, ccas, capacities, queue_mults, aqm
//	[mc]                      — systems, ccas, rate_mbps, rtt_ms, queue_mult, aqm
//	key = value
//
// Distributions are comma-separated weighted segments: "10..50:3, 50..100:1"
// mixes a uniform [10,50] at weight 3 with a uniform [50,100] at weight 1;
// "0.5:1, 2:2, 7:1" is a discrete distribution over three point masses; a
// bare "25" is a constant. Unknown sections or keys, duplicates, and
// out-of-range values are errors — a spec either compiles exactly or not at
// all.
func ParseSpec(r io.Reader) (*Spec, error) {
	sp := &Spec{Mode: ModeGrid, Iterations: 15, Scale: 1}
	seenSec := map[string]bool{}
	err := ini.Lex(r, ini.Grammar{
		Section: func(header string) (string, string, error) {
			name := strings.ToLower(header)
			switch name {
			case "campaign", "grid", "mc":
			default:
				return "", "", fmt.Errorf("unknown section [%s]", name)
			}
			if seenSec[name] {
				return "", "", fmt.Errorf("duplicate section [%s]", name)
			}
			seenSec[name] = true
			return name, "", nil
		},
		Key: func(section, key, val string) error {
			switch section {
			case "campaign":
				return sp.setCampaignKey(key, val)
			case "grid":
				return sp.setGridKey(key, val)
			}
			return sp.setMCKey(key, val)
		},
	})
	if err != nil {
		return nil, err
	}

	if seenSec["grid"] && sp.Mode != ModeGrid {
		return nil, fmt.Errorf("[grid] section in a %s-mode campaign", sp.Mode)
	}
	if seenSec["mc"] && sp.Mode != ModeMC {
		return nil, fmt.Errorf("[mc] section in a %s-mode campaign", sp.Mode)
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp *Spec) setCampaignKey(key, val string) error {
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
	case "mode":
		switch val {
		case ModeGrid, ModeMC:
			sp.Mode = val
			return nil
		}
		return fmt.Errorf("unknown mode %q (want grid or mc)", val)
	case "iterations":
		v, err := strconv.Atoi(val)
		if err != nil || v < 1 || v > maxCells {
			return fmt.Errorf("iterations %q outside [1,%d]", val, maxCells)
		}
		sp.Iterations = v
		return nil
	case "draws":
		v, err := strconv.Atoi(val)
		if err != nil || v < 1 || v > maxCells {
			return fmt.Errorf("draws %q outside [1,%d]", val, maxCells)
		}
		sp.Draws = v
		return nil
	case "scale":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > 100 {
			return fmt.Errorf("scale %q outside (0,100]", val)
		}
		sp.Scale = v
		return nil
	case "shards":
		v, err := strconv.Atoi(val)
		if err != nil || v < 1 || v > maxShards {
			return fmt.Errorf("shards %q outside [1,%d]", val, maxShards)
		}
		sp.Shards = v
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}

func (sp *Spec) setGridKey(key, val string) error {
	switch key {
	case "systems":
		return sp.parseSystems(val)
	case "ccas":
		return sp.parseCCAs(val)
	case "capacities":
		for _, s := range splitList(val) {
			r, err := experiment.ParseRate(s)
			if err != nil {
				return err
			}
			if r <= 0 {
				return fmt.Errorf("capacity %q must be positive", s)
			}
			if len(sp.Capacities) >= maxAxis {
				return fmt.Errorf("more than %d capacities", maxAxis)
			}
			sp.Capacities = append(sp.Capacities, r)
		}
		return nil
	case "queue_mults":
		for _, s := range splitList(val) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > 1000 {
				return fmt.Errorf("queue_mult %q outside (0,1000]", s)
			}
			if len(sp.QueueMults) >= maxAxis {
				return fmt.Errorf("more than %d queue_mults", maxAxis)
			}
			sp.QueueMults = append(sp.QueueMults, v)
		}
		return nil
	case "aqm":
		return sp.setAQM(val)
	}
	return fmt.Errorf("unknown key %q", key)
}

func (sp *Spec) setMCKey(key, val string) error {
	switch key {
	case "systems":
		return sp.parseSystems(val)
	case "ccas":
		return sp.parseCCAs(val)
	case "rate_mbps":
		p, err := parseDist(val, 0.1, 10000)
		if err != nil {
			return err
		}
		sp.Rate = p
		return nil
	case "rtt_ms":
		p, err := parseDist(val, 0.1, 10000)
		if err != nil {
			return err
		}
		sp.RTT = p
		return nil
	case "queue_mult":
		p, err := parseDist(val, 0.01, 1000)
		if err != nil {
			return err
		}
		sp.Queue = p
		return nil
	case "aqm":
		return sp.setAQM(val)
	}
	return fmt.Errorf("unknown key %q", key)
}

func (sp *Spec) setAQM(val string) error {
	switch val {
	case experiment.AQMDropTail, experiment.AQMCoDel, experiment.AQMFQCoDel:
		sp.AQM = val
		return nil
	}
	return fmt.Errorf("unknown aqm %q", val)
}

func (sp *Spec) parseSystems(val string) error {
	for _, s := range splitList(val) {
		var found gamestream.System
		for _, sys := range gamestream.Systems {
			if string(sys) == s {
				found = sys
				break
			}
		}
		if found == "" {
			return fmt.Errorf("unknown system %q (want stadia, geforce, or luna)", s)
		}
		if len(sp.Systems) >= maxAxis {
			return fmt.Errorf("more than %d systems", maxAxis)
		}
		sp.Systems = append(sp.Systems, found)
	}
	return nil
}

func (sp *Spec) parseCCAs(val string) error {
	for _, s := range splitList(val) {
		cca := s
		if s == "solo" {
			cca = "" // no competing flow
		} else if !tcp.Known(s) {
			return fmt.Errorf("unknown cca %q", s)
		}
		if len(sp.CCAs) >= maxAxis {
			return fmt.Errorf("more than %d ccas", maxAxis)
		}
		sp.CCAs = append(sp.CCAs, cca)
	}
	return nil
}

func splitList(val string) []string {
	var out []string
	for _, s := range strings.Split(val, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// parseDist parses a weighted-segment distribution: "lo..hi:w" is a uniform
// segment, "v:w" a point mass, weights default to 1. Bounds must fall in
// [lo, hi] and be finite; weights must be positive and finite.
func parseDist(val string, lo, hi float64) (*stats.Piecewise, error) {
	var segs []stats.Segment
	for _, part := range splitList(val) {
		if len(segs) >= maxDistSegs {
			return nil, fmt.Errorf("more than %d segments", maxDistSegs)
		}
		w := 1.0
		if i := strings.LastIndexByte(part, ':'); i >= 0 {
			v, err := strconv.ParseFloat(strings.TrimSpace(part[i+1:]), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
			w = v
			part = strings.TrimSpace(part[:i])
		}
		var a, b float64
		if s1, s2, ok := strings.Cut(part, ".."); ok {
			v1, err1 := strconv.ParseFloat(strings.TrimSpace(s1), 64)
			v2, err2 := strconv.ParseFloat(strings.TrimSpace(s2), 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad segment %q (want lo..hi)", part)
			}
			a, b = v1, v2
		} else {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q", part)
			}
			a, b = v, v
		}
		if math.IsNaN(a) || math.IsNaN(b) || a > b || a < lo || b > hi {
			return nil, fmt.Errorf("segment %q outside [%g,%g]", part, lo, hi)
		}
		segs = append(segs, stats.Segment{Lo: a, Hi: b, W: w})
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("empty distribution")
	}
	return stats.NewPiecewise(segs)
}

// validate cross-checks the assembled spec and fills mode defaults.
func (sp *Spec) validate() error {
	if sp.Name == "" {
		// ParseSpecFile fills from the filename; direct Parse callers must
		// name the campaign (the name feeds the campaign ID).
		sp.Name = "campaign"
	}
	if len(sp.Systems) == 0 {
		sp.Systems = append([]gamestream.System(nil), gamestream.Systems...)
	}
	if len(sp.CCAs) == 0 {
		sp.CCAs = []string{"cubic", "bbr"}
	}
	switch sp.Mode {
	case ModeGrid:
		if len(sp.Capacities) == 0 {
			sp.Capacities = []units.Rate{units.Mbps(15), units.Mbps(25), units.Mbps(35)}
		}
		if len(sp.QueueMults) == 0 {
			sp.QueueMults = []float64{0.5, 2, 7}
		}
	case ModeMC:
		if sp.Draws == 0 {
			return fmt.Errorf("mc mode needs [campaign] draws")
		}
		if sp.Rate == nil || sp.RTT == nil || sp.Queue == nil {
			return fmt.Errorf("mc mode needs [mc] rate_mbps, rtt_ms, and queue_mult distributions")
		}
	}
	total, err := sp.totalChecked()
	if err != nil {
		return err
	}
	if sp.Shards == 0 {
		sp.Shards = 16
	}
	if sp.Shards > total {
		sp.Shards = total
	}
	return nil
}

// totalChecked computes the campaign's run count, guarding the grid product
// against overflow.
func (sp *Spec) totalChecked() (int, error) {
	if sp.Mode == ModeMC {
		return sp.Draws, nil
	}
	total := 1
	for _, n := range []int{sp.Iterations, len(sp.Systems), len(sp.CCAs), len(sp.Capacities), len(sp.QueueMults)} {
		if n == 0 {
			return 0, fmt.Errorf("empty grid axis")
		}
		if total > maxCells/n {
			return 0, fmt.Errorf("grid larger than %d runs", maxCells)
		}
		total *= n
	}
	return total, nil
}

// Total is the campaign's run count.
func (sp *Spec) Total() int {
	n, _ := sp.totalChecked()
	return n
}

// Canonical renders the spec as normalised campaign-file text: fixed key
// order, no comments, one canonical float formatting. Parsing the canonical
// text reproduces the Spec, and its SHA-256 is the campaign ID — so the
// manifest can embed the text and every worker re-derives the identical
// cell list from it.
func (sp *Spec) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[campaign]\nname = %s\nseed = %d\nmode = %s\n", sp.Name, sp.Seed, sp.Mode)
	if sp.Mode == ModeGrid {
		fmt.Fprintf(&b, "iterations = %d\n", sp.Iterations)
	} else {
		fmt.Fprintf(&b, "draws = %d\n", sp.Draws)
	}
	fmt.Fprintf(&b, "scale = %g\nshards = %d\n", sp.Scale, sp.Shards)

	section := "[grid]"
	if sp.Mode == ModeMC {
		section = "[mc]"
	}
	fmt.Fprintf(&b, "\n%s\n", section)
	var names []string
	for _, s := range sp.Systems {
		names = append(names, string(s))
	}
	fmt.Fprintf(&b, "systems = %s\n", strings.Join(names, ","))
	names = names[:0]
	for _, c := range sp.CCAs {
		if c == "" {
			c = "solo"
		}
		names = append(names, c)
	}
	fmt.Fprintf(&b, "ccas = %s\n", strings.Join(names, ","))
	if sp.Mode == ModeGrid {
		names = names[:0]
		for _, c := range sp.Capacities {
			names = append(names, fmt.Sprintf("%gmbit", c.Mbit()))
		}
		fmt.Fprintf(&b, "capacities = %s\n", strings.Join(names, ","))
		names = names[:0]
		for _, q := range sp.QueueMults {
			names = append(names, fmt.Sprintf("%g", q))
		}
		fmt.Fprintf(&b, "queue_mults = %s\n", strings.Join(names, ","))
	} else {
		fmt.Fprintf(&b, "rate_mbps = %s\n", renderDist(sp.Rate))
		fmt.Fprintf(&b, "rtt_ms = %s\n", renderDist(sp.RTT))
		fmt.Fprintf(&b, "queue_mult = %s\n", renderDist(sp.Queue))
	}
	if sp.AQM != "" {
		fmt.Fprintf(&b, "aqm = %s\n", sp.AQM)
	}
	return b.String()
}

func renderDist(p *stats.Piecewise) string {
	var parts []string
	for _, s := range p.Segments() {
		if s.Lo == s.Hi {
			parts = append(parts, fmt.Sprintf("%g:%g", s.Lo, s.W))
		} else {
			parts = append(parts, fmt.Sprintf("%g..%g:%g", s.Lo, s.Hi, s.W))
		}
	}
	return strings.Join(parts, ",")
}

// ID returns the campaign's content identity: the SHA-256 of the canonical
// spec text, truncated to 16 hex digits. Any change that could alter the
// cell list changes the ID, so a campaign directory can never mix shards
// from two different expansions.
func (sp *Spec) ID() string {
	sum := sha256.Sum256([]byte(sp.Canonical()))
	return hex.EncodeToString(sum[:8])
}
