package experiment

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/netem"
)

// FuzzParseProb feeds the probability parser arbitrary key values: any
// accepted value must be a real number in [0,1], and its shortest decimal
// rendering must parse back to exactly the same value.
func FuzzParseProb(f *testing.F) {
	for _, seed := range []string{
		"0", "1", "0.5", "2%", "0.5%", "100%", "1e-3", "-1", "101%",
		"NaN", "nan%", "+Inf", "0x1p-2", ".5", "5e-1%", "", "%",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseProb(s)
		if err != nil {
			if v != 0 {
				t.Fatalf("ParseProb(%q) error with non-zero value %g", s, v)
			}
			return
		}
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("ParseProb(%q) = %g outside [0,1]", s, v)
		}
		rt, err := ParseProb(fmt.Sprintf("%g", v))
		if err != nil || rt != v {
			t.Fatalf("ParseProb(%q) = %g does not round-trip: %g, %v", s, v, rt, err)
		}
	})
}

// FuzzParseLoss feeds the loss-spec parser arbitrary key values: any
// accepted spec must leave the impairment in a consistent state — a known
// loss model with all probabilities in [0,1] — and parsing must be
// deterministic.
func FuzzParseLoss(f *testing.F) {
	for _, seed := range []string{
		"", "none", "2%", "0.02", "ge:p=0.01,r=0.25",
		"ge:p=1%,r=25%,good=0.001,bad=0.9", "ge:p=0", "ge:x=1",
		"ge:", "ge:p", "101%", "nan", "ge:p=nan,r=0.25",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var im netem.Impairment
		if err := ParseLoss(s, &im); err != nil {
			return
		}
		switch im.LossModel {
		case "":
			if im.LossRate != 0 {
				t.Fatalf("ParseLoss(%q): no model but LossRate %g", s, im.LossRate)
			}
		case netem.LossBernoulli:
			if math.IsNaN(im.LossRate) || im.LossRate < 0 || im.LossRate > 1 {
				t.Fatalf("ParseLoss(%q): LossRate %g outside [0,1]", s, im.LossRate)
			}
		case netem.LossGE:
			for name, p := range map[string]float64{
				"p": im.GEGoodBad, "r": im.GEBadGood,
				"good": im.GELossGood, "bad": im.GELossBad,
			} {
				if math.IsNaN(p) || p < 0 || p > 1 {
					t.Fatalf("ParseLoss(%q): GE %s=%g outside [0,1]", s, name, p)
				}
			}
			if im.GEGoodBad == 0 {
				t.Fatalf("ParseLoss(%q): GE model accepted with p=0", s)
			}
		default:
			t.Fatalf("ParseLoss(%q): unknown model %q", s, im.LossModel)
		}
		var again netem.Impairment
		if err := ParseLoss(s, &again); err != nil || again != im {
			t.Fatalf("ParseLoss(%q) not deterministic: %+v vs %+v (%v)", s, im, again, err)
		}
	})
}

// FuzzParseSchedule feeds the retuning-program parser arbitrary key
// values: any accepted program must come back sorted by offset with only
// known step kinds and in-range values, and its ScheduleString rendering
// must re-parse to a program of the same shape.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"", "15s rate=10mbit; 30s loss=2%; 45s down; 50s up; 60s jitter=3ms",
		"1s delay=20ms", "0s rate=250kbit", "2s rate=5", "1s down=1",
		"9s up; 3s down", "1s loss=nan%", "-1s down", "1s rate=-5mbit",
		"x down", "1s", "1s rate=", ";;", "1s  down ;", "1h0m0.5s delay=1ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		steps, err := ParseSchedule(s)
		if err != nil {
			return
		}
		for i, st := range steps {
			if st.At < 0 {
				t.Fatalf("ParseSchedule(%q): step %d at negative offset %v", s, i, st.At)
			}
			if i > 0 && st.At < steps[i-1].At {
				t.Fatalf("ParseSchedule(%q): steps not sorted at %d", s, i)
			}
			switch st.Kind {
			case ScheduleRate:
				if st.Rate < 0 {
					t.Fatalf("ParseSchedule(%q): negative rate %d", s, st.Rate)
				}
			case ScheduleDelay:
				if st.Delay < 0 {
					t.Fatalf("ParseSchedule(%q): negative delay %v", s, st.Delay)
				}
			case ScheduleLoss:
				if math.IsNaN(st.LossRate) || st.LossRate < 0 || st.LossRate > 1 {
					t.Fatalf("ParseSchedule(%q): loss %g outside [0,1]", s, st.LossRate)
				}
			case ScheduleJitter:
				if st.Jitter < 0 {
					t.Fatalf("ParseSchedule(%q): negative jitter %v", s, st.Jitter)
				}
			case ScheduleDown, ScheduleUp:
			default:
				t.Fatalf("ParseSchedule(%q): unknown kind %q", s, st.Kind)
			}
		}
		// The renderer must produce a spec the parser accepts again, with
		// identical offsets and kinds. Values may round (floats render in
		// shortest form, rates truncate to bits/s), so shape, not bytes,
		// is the contract.
		again, err := ParseSchedule(ScheduleString(steps))
		if err != nil {
			t.Fatalf("ParseSchedule(ScheduleString) failed: %v", err)
		}
		if len(again) != len(steps) {
			t.Fatalf("round-trip changed step count: %d vs %d", len(steps), len(again))
		}
		for i := range steps {
			if again[i].At != steps[i].At || again[i].Kind != steps[i].Kind {
				t.Fatalf("round-trip changed step %d: %v vs %v", i, steps[i], again[i])
			}
		}
	})
}
