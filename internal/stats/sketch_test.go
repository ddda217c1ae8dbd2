package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// relErr is |got-want| / max(|want|, eps).
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if w := math.Abs(want); w > 1e-9 {
		return d / w
	}
	return d
}

func TestMetricSketch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ms := new(MetricSketch)
	var xs []float64
	for i := 0; i < 5000; i++ {
		x := 20 + 4*r.NormFloat64()
		xs = append(xs, x)
		ms.Add(x)
		if i%100 == 0 {
			ms.Add(math.NaN()) // ignored
		}
	}
	exact := Summarize(xs)
	if ms.N() != exact.N {
		t.Fatalf("N = %d, want %d", ms.N(), exact.N)
	}
	if relErr(ms.Mean(), exact.Mean) > 1e-12 || relErr(ms.CI95(), exact.CI95) > 1e-9 {
		t.Errorf("moments drifted: mean %g/%g ci %g/%g", ms.Mean(), exact.Mean, ms.CI95(), exact.CI95)
	}
	if lo, hi := Percentile(xs, 0), Percentile(xs, 1); ms.Min() != lo || ms.Max() != hi {
		t.Errorf("extremes %g..%g, want exactly %g..%g", ms.Min(), ms.Max(), lo, hi)
	}

	// Merge equivalence: partitioned sketches merge to the same moments and
	// the same extremes.
	var a, b MetricSketch
	for i, x := range xs {
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != ms.N() || relErr(a.Mean(), ms.Mean()) > 1e-12 || relErr(a.StdDev(), ms.StdDev()) > 1e-9 {
		t.Error("partitioned merge diverged from single-stream sketch")
	}
	if a.Min() != ms.Min() || a.Max() != ms.Max() {
		t.Errorf("merged extremes %g..%g, want %g..%g", a.Min(), a.Max(), ms.Min(), ms.Max())
	}

	// JSON round trip preserves every field and stays mergeable.
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricSketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *ms {
		t.Errorf("round trip changed the sketch: %+v, want %+v", back, *ms)
	}
	back.Add(1)
	if back.N() != ms.N()+1 || back.Min() != 1 {
		t.Error("decoded sketch not usable")
	}
}

func TestMetricSketchEmpty(t *testing.T) {
	var zero MetricSketch // the zero value is an empty sketch
	if zero.N() != 0 || !math.IsNaN(zero.Min()) || !math.IsNaN(zero.Max()) || zero.CI95() != 0 {
		t.Errorf("zero value not empty: n %d min %g max %g", zero.N(), zero.Min(), zero.Max())
	}
	zero.Add(math.NaN())
	if zero.N() != 0 || zero != (MetricSketch{}) {
		t.Error("a NaN sample changed an empty sketch")
	}
	zero.Add(-3)
	if zero.N() != 1 || zero.Min() != -3 || zero.Max() != -3 {
		t.Errorf("one sample: n %d min %g max %g, want 1 -3 -3", zero.N(), zero.Min(), zero.Max())
	}

	var full MetricSketch
	for _, x := range []float64{4, -1, 7, 2} {
		full.Add(x)
	}
	want := full

	// An empty operand on the right changes nothing.
	full.Merge(new(MetricSketch))
	full.Merge(nil)
	if full != want {
		t.Errorf("merging an empty sketch changed %+v to %+v", want, full)
	}
	// A merge into an empty sketch equals a copy, extremes included (an
	// empty sketch's zero min and max must not leak into them).
	var into MetricSketch
	into.Merge(&full)
	if into != full || into.Min() != -1 || into.Max() != 7 {
		t.Errorf("merge into empty = %+v, want copy %+v", into, full)
	}
	// Two empty sketches merge to an empty one.
	var e1, e2 MetricSketch
	e1.Merge(&e2)
	if e1 != (MetricSketch{}) {
		t.Errorf("empty merge = %+v", e1)
	}
}

func TestMetricSketchJSONRejectsUnreachable(t *testing.T) {
	for name, in := range map[string]string{
		"negative count":         `{"n":-1,"mean":0,"m2":0,"min":0,"max":0}`,
		"empty sketch with data": `{"n":0,"mean":1,"m2":0,"min":0,"max":0}`,
		"min above max":          `{"n":2,"mean":1,"m2":0,"min":3,"max":1}`,
	} {
		var m MetricSketch
		if err := json.Unmarshal([]byte(in), &m); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
}
