package stats

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
)

// MetricSketch is the streaming summary of one metric across a run
// population: a Welford Accumulator for the exact mean, variance and CI,
// plus the exact minimum and maximum, all mergeable in five numbers. It is
// the unit the campaign telemetry layer keeps per (condition, metric).
//
// The zero value is an empty sketch, and a struct copy is an independent
// one. Its state is a pure function of its insertion sequence, and Merge is
// a pure function of its operands; queries and serialisation never mutate.
type MetricSketch struct {
	acc      Accumulator
	min, max float64 // both 0 while the sketch is empty
}

// Add incorporates one sample; NaN samples are ignored (a sketch over a
// metric that is undefined for some runs summarises the defined ones).
func (m *MetricSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if m.acc.n == 0 || x < m.min {
		m.min = x
	}
	if m.acc.n == 0 || x > m.max {
		m.max = x
	}
	m.acc.Add(x)
}

// Merge folds other into m without mutating other. An empty operand on
// either side contributes nothing to the extremes.
func (m *MetricSketch) Merge(other *MetricSketch) {
	if other == nil || other.acc.n == 0 {
		return
	}
	if m.acc.n == 0 || other.min < m.min {
		m.min = other.min
	}
	if m.acc.n == 0 || other.max > m.max {
		m.max = other.max
	}
	acc := other.acc
	m.acc.Merge(&acc)
}

// N returns the sample count.
func (m *MetricSketch) N() int64 { return m.acc.N() }

// Mean returns the exact running mean.
func (m *MetricSketch) Mean() float64 { return m.acc.Mean() }

// StdDev returns the exact sample standard deviation.
func (m *MetricSketch) StdDev() float64 { return m.acc.StdDev() }

// CI95 returns the exact 95% confidence half-width on the mean.
func (m *MetricSketch) CI95() float64 { return m.acc.CI95() }

// Min returns the smallest sample seen (NaN when empty).
func (m *MetricSketch) Min() float64 {
	if m.acc.n == 0 {
		return math.NaN()
	}
	return m.min
}

// Max returns the largest sample seen (NaN when empty).
func (m *MetricSketch) Max() float64 {
	if m.acc.n == 0 {
		return math.NaN()
	}
	return m.max
}

// reachable reports whether the state is one Add and Merge can produce: a
// non-negative count, every field zero while the count is, and min ≤ max
// once it is not.
func (m *MetricSketch) reachable() bool {
	if m.acc.n == 0 {
		return m.acc.mean == 0 && m.acc.m2 == 0 && m.min == 0 && m.max == 0
	}
	return m.acc.n > 0 && m.min <= m.max
}

// metricSketchJSON is the serialised form. The accumulator's moments are
// stored raw (n, mean, m2) so a restored sketch keeps merging exactly.
type metricSketchJSON struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON serialises the sketch's five numbers.
func (m *MetricSketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(metricSketchJSON{N: m.acc.n, Mean: m.acc.mean, M2: m.acc.m2, Min: m.min, Max: m.max})
}

// UnmarshalJSON restores a sketch serialised by MarshalJSON, refusing a
// state no sample stream reaches.
func (m *MetricSketch) UnmarshalJSON(data []byte) error {
	var j metricSketchJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("stats: sketch: %w", err)
	}
	got := MetricSketch{acc: Accumulator{n: j.N, mean: j.Mean, m2: j.M2}, min: j.Min, max: j.Max}
	if !got.reachable() {
		return errors.New("stats: sketch: state no sample stream reaches")
	}
	*m = got
	return nil
}

// AppendWire appends the sketch's binary form (see internal/wire) to b:
// the Welford moments n, mean and m2, then min and max.
func (m *MetricSketch) AppendWire(b []byte) []byte {
	b = binary.AppendVarint(b, m.acc.n)
	b = wire.AppendFloat(b, m.acc.mean)
	b = wire.AppendFloat(b, m.acc.m2)
	b = wire.AppendFloat(b, m.min)
	return wire.AppendFloat(b, m.max)
}

// ReadMetricSketch reads one sketch written by AppendWire off d, failing d
// on a state no sample stream reaches.
func ReadMetricSketch(d *wire.Decoder) *MetricSketch {
	m := &MetricSketch{acc: Accumulator{n: d.Varint(), mean: d.Float(), m2: d.Float()}, min: d.Float(), max: d.Float()}
	if !m.reachable() {
		d.Fail()
	}
	return m
}
