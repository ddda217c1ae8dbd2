package stats

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/wire"
)

// MetricSketch is the streaming summary of one metric across an unbounded
// run population: a Welford Accumulator for exact mean/variance/CI and a
// t-digest for quantiles, both mergeable. It is the unit the campaign
// telemetry layer keeps per (condition, metric): O(1)-ish memory however
// many runs fold in.
//
// Like TDigest, a MetricSketch's state is a pure function of its insertion
// sequence, and Merge is a pure function of its operands; queries and
// serialisation never mutate.
type MetricSketch struct {
	acc    Accumulator
	digest *TDigest
}

// NewMetricSketch returns an empty sketch (0 compression = default δ).
func NewMetricSketch(compression float64) *MetricSketch {
	return &MetricSketch{digest: NewTDigest(compression)}
}

// Add incorporates one sample; NaN samples are ignored.
func (m *MetricSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	m.acc.Add(x)
	m.digest.Add(x)
}

// Merge folds other into m without mutating other.
func (m *MetricSketch) Merge(other *MetricSketch) {
	if other == nil {
		return
	}
	acc := other.acc
	m.acc.Merge(&acc)
	m.digest.Merge(other.digest)
}

// Clone returns an independent deep copy.
func (m *MetricSketch) Clone() *MetricSketch {
	return &MetricSketch{acc: m.acc, digest: m.digest.Clone()}
}

// N returns the sample count.
func (m *MetricSketch) N() int64 { return m.acc.N() }

// Mean returns the exact running mean.
func (m *MetricSketch) Mean() float64 { return m.acc.Mean() }

// StdDev returns the exact sample standard deviation.
func (m *MetricSketch) StdDev() float64 { return m.acc.StdDev() }

// CI95 returns the exact 95% confidence half-width on the mean.
func (m *MetricSketch) CI95() float64 { return m.acc.CI95() }

// Quantile returns the t-digest estimate of the p-quantile.
func (m *MetricSketch) Quantile(p float64) float64 { return m.digest.Quantile(p) }

// Min and Max return the exact stream extremes.
func (m *MetricSketch) Min() float64 { return m.digest.Min() }

// Max returns the largest sample seen.
func (m *MetricSketch) Max() float64 { return m.digest.Max() }

// Summary renders the exact moment statistics as a Summary.
func (m *MetricSketch) Summary() Summary {
	return Summary{N: m.acc.N(), Mean: m.acc.Mean(), StdDev: m.acc.StdDev(), CI95: m.acc.CI95()}
}

// metricSketchJSON is the serialised form. The accumulator's moments are
// stored raw (n, mean, m2) so a restored sketch keeps merging exactly.
type metricSketchJSON struct {
	N      int64    `json:"n"`
	Mean   float64  `json:"mean"`
	M2     float64  `json:"m2"`
	Digest *TDigest `json:"digest"`
}

// MarshalJSON serialises the sketch canonically (see TDigest.MarshalJSON).
func (m *MetricSketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(metricSketchJSON{
		N:      m.acc.n,
		Mean:   m.acc.mean,
		M2:     m.acc.m2,
		Digest: m.digest,
	})
}

// UnmarshalJSON restores a sketch serialised by MarshalJSON.
func (m *MetricSketch) UnmarshalJSON(data []byte) error {
	j := metricSketchJSON{Digest: NewTDigest(0)}
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("stats: sketch: %w", err)
	}
	m.acc = Accumulator{n: j.N, mean: j.Mean, m2: j.M2}
	if j.Digest == nil {
		j.Digest = NewTDigest(0)
	}
	m.digest = j.Digest
	return nil
}

// AppendWire appends the sketch's binary form (see internal/wire) to b:
// the Welford moments n, mean and m2, then the digest (TDigest.AppendWire).
func (m *MetricSketch) AppendWire(b []byte) []byte {
	b = binary.AppendVarint(b, m.acc.n)
	b = wire.AppendFloat(b, m.acc.mean)
	b = wire.AppendFloat(b, m.acc.m2)
	return m.digest.AppendWire(b)
}

// ReadMetricSketch reads one sketch written by AppendWire off d, refusing a
// negative sample count.
func ReadMetricSketch(d *wire.Decoder) *MetricSketch {
	m := &MetricSketch{acc: Accumulator{n: d.Varint(), mean: d.Float(), m2: d.Float()}}
	if m.acc.n < 0 {
		d.Fail()
	}
	m.digest = ReadTDigest(d)
	return m
}
