package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/units"
)

// Schedule step kinds: which bottleneck element a step retunes.
const (
	ScheduleRate   = "rate"   // shaper rate step (tc qdisc change tbf)
	ScheduleDelay  = "delay"  // one-way propagation delay change
	ScheduleLoss   = "loss"   // Bernoulli loss-rate change on the impairer
	ScheduleJitter = "jitter" // jitter-spread change on the impairer
	ScheduleDown   = "down"   // link flap: drop everything from here
	ScheduleUp     = "up"     // link restore
)

// ScheduleStep retunes one bottleneck element at a fixed trace offset,
// modelling mid-run condition changes (capacity drops, WiFi-like loss
// episodes, full link flaps) that a static grid condition cannot express.
// Exactly one of the value fields is meaningful, selected by Kind.
type ScheduleStep struct {
	At       time.Duration
	Kind     string
	Rate     units.Rate
	Delay    time.Duration
	LossRate float64
	Jitter   time.Duration
}

// String renders the step the way ParseSchedule accepts it.
func (s ScheduleStep) String() string {
	switch s.Kind {
	case ScheduleRate:
		return fmt.Sprintf("%v rate=%gmbit", s.At, s.Rate.Mbit())
	case ScheduleDelay:
		return fmt.Sprintf("%v delay=%v", s.At, s.Delay)
	case ScheduleLoss:
		return fmt.Sprintf("%v loss=%g%%", s.At, s.LossRate*100)
	case ScheduleJitter:
		return fmt.Sprintf("%v jitter=%v", s.At, s.Jitter)
	default:
		return fmt.Sprintf("%v %s", s.At, s.Kind)
	}
}

// ParseProb reads a probability given either as a percentage ("2%", "0.5%")
// or a plain fraction ("0.02").
func ParseProb(s string) (float64, error) { return parseProb(s) }

// ParseRate reads a rate given as "10mbit", "250kbit", or a bare number of
// Mb/s ("10").
func ParseRate(s string) (units.Rate, error) { return parseRate(s) }

// parseProb reads a probability given either as a percentage ("2%", "0.5%")
// or a plain fraction ("0.02").
func parseProb(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad probability %q", s)
	}
	if pct {
		v /= 100
	}
	// NaN slips past both range checks below; reject it explicitly.
	if math.IsNaN(v) || v < 0 || v > 1 {
		return 0, fmt.Errorf("probability %q outside [0,1]", s)
	}
	return v, nil
}

// parseRate reads a rate given as "10mbit", "250kbit", or a bare number of
// Mb/s ("10").
func parseRate(s string) (units.Rate, error) {
	ls := strings.ToLower(s)
	toRate := units.Mbps
	num := ls
	switch {
	case strings.HasSuffix(ls, "mbit"):
		num = strings.TrimSuffix(ls, "mbit")
	case strings.HasSuffix(ls, "kbit"):
		num = strings.TrimSuffix(ls, "kbit")
		toRate = units.Kbps
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	return toRate(v), nil
}

// ParseLoss fills the loss-model fields of an Impairment from a .scn loss
// value: "" or "none" (no loss), a Bernoulli probability ("2%", "0.02"), or
// a Gilbert-Elliott spec "ge:p=0.01,r=0.25[,good=0.001][,bad=0.9]" with the
// classic Gilbert per-state defaults when good/bad are omitted. Non-loss
// fields of im are left untouched.
func ParseLoss(spec string, im *netem.Impairment) error {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		im.LossModel = ""
		return nil
	}
	if after, ok := strings.CutPrefix(spec, "ge:"); ok {
		im.LossModel = netem.LossGE
		for _, kv := range strings.Split(after, ",") {
			k, v, found := strings.Cut(strings.TrimSpace(kv), "=")
			if !found {
				return fmt.Errorf("loss %q: want ge:p=...,r=...", spec)
			}
			p, err := parseProb(v)
			if err != nil {
				return fmt.Errorf("loss %q: %v", spec, err)
			}
			switch k {
			case "p":
				im.GEGoodBad = p
			case "r":
				im.GEBadGood = p
			case "good":
				im.GELossGood = p
			case "bad":
				im.GELossBad = p
			default:
				return fmt.Errorf("loss %q: unknown GE parameter %q", spec, k)
			}
		}
		if im.GEGoodBad == 0 {
			return fmt.Errorf("loss %q: GE model needs p > 0", spec)
		}
		return nil
	}
	p, err := parseProb(spec)
	if err != nil {
		return fmt.Errorf("loss %q: %v", spec, err)
	}
	im.LossModel = netem.LossBernoulli
	im.LossRate = p
	return nil
}

// ParseSchedule reads a retuning program (a .scn file's [schedule] steps,
// joined): semicolon-separated steps of the form
// "<offset> <kind>[=<value>]", e.g.
//
//	"15s rate=10mbit; 30s loss=2%; 45s down; 50s up; 60s jitter=3ms"
//
// Offsets are time.ParseDuration strings relative to trace start. Steps may
// be given in any order; they are returned sorted by offset (stable).
func ParseSchedule(spec string) ([]ScheduleStep, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var steps []ScheduleStep
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return nil, fmt.Errorf("schedule step %q: want \"<offset> <kind>[=<value>]\"", part)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil || at < 0 {
			return nil, fmt.Errorf("schedule step %q: bad offset %q", part, fields[0])
		}
		kind, val, hasVal := strings.Cut(fields[1], "=")
		st := ScheduleStep{At: at, Kind: kind}
		switch kind {
		case ScheduleRate:
			if st.Rate, err = parseRate(val); err != nil {
				return nil, fmt.Errorf("schedule step %q: %v", part, err)
			}
		case ScheduleDelay:
			if st.Delay, err = time.ParseDuration(val); err != nil || st.Delay < 0 {
				return nil, fmt.Errorf("schedule step %q: bad delay %q", part, val)
			}
		case ScheduleLoss:
			if st.LossRate, err = parseProb(val); err != nil {
				return nil, fmt.Errorf("schedule step %q: %v", part, err)
			}
		case ScheduleJitter:
			if st.Jitter, err = time.ParseDuration(val); err != nil || st.Jitter < 0 {
				return nil, fmt.Errorf("schedule step %q: bad jitter %q", part, val)
			}
		case ScheduleDown, ScheduleUp:
			if hasVal {
				return nil, fmt.Errorf("schedule step %q: %s takes no value", part, kind)
			}
		default:
			return nil, fmt.Errorf("schedule step %q: unknown kind %q", part, kind)
		}
		steps = append(steps, st)
	}
	// Stable insertion sort by offset keeps equal-time steps in input order.
	for i := 1; i < len(steps); i++ {
		for j := i; j > 0 && steps[j].At < steps[j-1].At; j-- {
			steps[j], steps[j-1] = steps[j-1], steps[j]
		}
	}
	return steps, nil
}

// ScheduleString renders steps the way ParseSchedule accepts them.
func ScheduleString(steps []ScheduleStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}
