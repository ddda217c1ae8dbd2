package stats

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/wire"
)

// DefaultCompression is the t-digest δ used when NewTDigest is given zero:
// roughly 2δ centroids at most, with quantile error ~ q(1-q)/δ. 400 keeps a
// campaign-scale sketch under ~14 kB serialized while holding p01–p99
// inside 1% relative error on 10⁴-sample streams even for skewed (e.g.
// log-normal) metrics; sketches stay far smaller while their sample counts
// are below ~2δ, which covers every per-condition sketch of a paper-sized
// grid.
const DefaultCompression = 400

// tdigestBufCap is the number of unmerged samples buffered before an
// automatic compress. Larger buffers amortise sorting; the value only
// affects performance, never the deterministic state evolution (compression
// points are a pure function of the insertion sequence).
const tdigestBufCap = 512

// TDigest is a mergeable quantile sketch (Dunning's merging t-digest,
// scale function k1). It summarises an unbounded stream of float64 samples
// in bounded memory: at most ~2×compression centroids plus a fixed-size
// insertion buffer.
//
// Determinism: the digest's state is a pure function of its insertion
// sequence — compression happens only when the internal buffer fills, ties
// are broken by value, and no randomisation is used. Two digests fed the
// same samples in the same order are deeply equal, and Merge is a pure
// function of its operands, so a tree of digests merged in a deterministic
// order yields byte-identical serialisations regardless of which goroutine
// produced each leaf. Queries and serialisation never mutate state.
//
// The zero value is not usable; create one with NewTDigest.
type TDigest struct {
	compression float64

	// means/weights are the merged centroids, sorted by mean.
	means   []float64
	weights []float64

	// buf holds samples not yet merged into centroids.
	buf []float64

	count    int64
	min, max float64
}

// NewTDigest returns an empty digest with the given compression δ
// (0 = DefaultCompression).
func NewTDigest(compression float64) *TDigest {
	if compression <= 0 {
		compression = DefaultCompression
	}
	return &TDigest{compression: compression, min: math.Inf(1), max: math.Inf(-1)}
}

// Compression returns the digest's δ.
func (t *TDigest) Compression() float64 { return t.compression }

// N returns the number of samples added.
func (t *TDigest) N() int64 { return t.count }

// Min and Max return the exact extremes of the stream (NaN when empty).
func (t *TDigest) Min() float64 {
	if t.count == 0 {
		return math.NaN()
	}
	return t.min
}

// Max returns the largest sample seen (NaN when empty).
func (t *TDigest) Max() float64 {
	if t.count == 0 {
		return math.NaN()
	}
	return t.max
}

// Add incorporates one sample. NaN samples are ignored (a sketch over a
// metric that is undefined for some runs should summarise the defined ones).
func (t *TDigest) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	t.count++
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.buf = append(t.buf, x)
	if len(t.buf) >= tdigestBufCap {
		t.compress()
	}
}

// k is the k1 scale function, normalised so the full quantile range spans
// exactly `compression` units: k(q) = δ·(asin(2q−1)/π + ½).
func (t *TDigest) k(q float64) float64 {
	switch {
	case q <= 0:
		return 0
	case q >= 1:
		return t.compression
	}
	return t.compression * (math.Asin(2*q-1)/math.Pi + 0.5)
}

// compress merges the buffer into the centroid list, bounding the result at
// ~2δ centroids. It is the only operation that rewrites centroids, and it
// runs only from Add (buffer full) and Merge — never from queries — so the
// state evolution is a pure function of the insertion sequence.
func (t *TDigest) compress() {
	if len(t.buf) == 0 {
		return
	}
	t.means, t.weights = t.folded()
	t.buf = t.buf[:0]
}

// folded returns the centroids the digest holds once its buffer is
// merged in — the canonical form compress stores and queries and
// serialisation read — without changing the digest.
func (t *TDigest) folded() (means, weights []float64) {
	if len(t.buf) == 0 {
		return t.means, t.weights
	}
	n := len(t.means) + len(t.buf)
	means = make([]float64, 0, n)
	weights = make([]float64, 0, n)
	means = append(means, t.means...)
	weights = append(weights, t.weights...)
	for _, x := range t.buf {
		means = append(means, x)
		weights = append(weights, 1)
	}
	return mergeCentroids(t, means, weights)
}

// mergeCentroids sorts the given centroid set and greedily merges neighbours
// while the k-size budget allows, returning fresh slices. Ties on mean are
// broken by weight (ascending) so the pass is deterministic for any input
// permutation of equal-valued items.
func mergeCentroids(t *TDigest, means, weights []float64) (outM, outW []float64) {
	type idxSort struct {
		m, w float64
	}
	cs := make([]idxSort, len(means))
	for i := range means {
		cs[i] = idxSort{means[i], weights[i]}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].m != cs[j].m {
			return cs[i].m < cs[j].m
		}
		return cs[i].w < cs[j].w
	})
	total := 0.0
	for _, c := range cs {
		total += c.w
	}
	outM = make([]float64, 0, len(cs))
	outW = make([]float64, 0, len(cs))
	var (
		curM, curW float64
		soFar      float64 // weight fully emitted so far
		started    bool
	)
	emit := func() {
		outM = append(outM, curM)
		outW = append(outW, curW)
		soFar += curW
	}
	for _, c := range cs {
		if !started {
			curM, curW, started = c.m, c.w, true
			continue
		}
		q0 := soFar / total
		q2 := (soFar + curW + c.w) / total
		if t.k(q2)-t.k(q0) <= 1 {
			// Weighted-mean update keeps the merged centroid exact.
			curM = (curM*curW + c.m*c.w) / (curW + c.w)
			curW += c.w
		} else {
			emit()
			curM, curW = c.m, c.w
		}
	}
	if started {
		emit()
	}
	return outM, outW
}

// Merge folds other into t. It does not mutate other. Merge order matters
// for byte-identity (not for accuracy): merging a set of digests in a
// canonical order — e.g. sorted by condition name — gives byte-identical
// results regardless of how the leaves were produced.
func (t *TDigest) Merge(other *TDigest) {
	if other == nil || other.count == 0 {
		return
	}
	t.count += other.count
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
	n := len(t.means) + len(t.buf) + len(other.means) + len(other.buf)
	means := make([]float64, 0, n)
	weights := make([]float64, 0, n)
	means = append(means, t.means...)
	weights = append(weights, t.weights...)
	for _, x := range t.buf {
		means = append(means, x)
		weights = append(weights, 1)
	}
	means = append(means, other.means...)
	weights = append(weights, other.weights...)
	for _, x := range other.buf {
		means = append(means, x)
		weights = append(weights, 1)
	}
	t.buf = t.buf[:0]
	t.means, t.weights = mergeCentroids(t, means, weights)
}

// Clone returns an independent deep copy.
func (t *TDigest) Clone() *TDigest {
	c := &TDigest{
		compression: t.compression,
		means:       append([]float64(nil), t.means...),
		weights:     append([]float64(nil), t.weights...),
		buf:         append([]float64(nil), t.buf...),
		count:       t.count,
		min:         t.min,
		max:         t.max,
	}
	return c
}

// Centroids returns the number of merged centroids plus buffered points —
// the sketch's current memory footprint in summary units.
func (t *TDigest) Centroids() int { return len(t.means) + len(t.buf) }

// Quantile returns the estimated p-quantile (0..1). It never mutates the
// digest: buffered points are folded into a temporary view. NaN when empty.
func (t *TDigest) Quantile(p float64) float64 {
	if t.count == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return t.min
	}
	if p >= 1 {
		return t.max
	}
	means, weights := t.folded()
	if len(means) == 1 {
		return means[0]
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	n := len(means)
	index := p * total
	// The interpolation scheme of Dunning's reference MergingDigest:
	// centroids are centred mass, singleton centroids are exact samples,
	// and the outermost unit of weight on each side is pinned to min/max.
	if index < 1 {
		return t.min
	}
	if weights[0] > 1 && index < weights[0]/2 {
		return t.min + (index-1)/(weights[0]/2-1)*(means[0]-t.min)
	}
	if index > total-1 {
		return t.max
	}
	if weights[n-1] > 1 && total-index <= weights[n-1]/2 {
		return t.max - (total-index-1)/(weights[n-1]/2-1)*(t.max-means[n-1])
	}
	soFar := weights[0] / 2
	for i := 0; i < n-1; i++ {
		dw := (weights[i] + weights[i+1]) / 2
		if soFar+dw > index {
			// Centroids i and i+1 bracket the target rank.
			leftUnit := 0.0
			if weights[i] == 1 {
				if index-soFar < 0.5 {
					return means[i]
				}
				leftUnit = 0.5
			}
			rightUnit := 0.0
			if weights[i+1] == 1 {
				if soFar+dw-index <= 0.5 {
					return means[i+1]
				}
				rightUnit = 0.5
			}
			z1 := index - soFar - leftUnit
			z2 := soFar + dw - index - rightUnit
			return weightedAverage(means[i], z2, means[i+1], z1)
		}
		soFar += dw
	}
	// Past the midpoint of the last centroid: interpolate toward max.
	z1 := index - total + weights[n-1]/2
	z2 := weights[n-1]/2 - z1
	return weightedAverage(means[n-1], z1, t.max, z2)
}

// weightedAverage interpolates between x1 and x2 (x1 <= x2) with the given
// weights, clamped to the [x1, x2] interval.
func weightedAverage(x1, w1, x2, w2 float64) float64 {
	if w1+w2 <= 0 {
		return (x1 + x2) / 2
	}
	x := (x1*w1 + x2*w2) / (w1 + w2)
	return math.Max(x1, math.Min(x, x2))
}

// tdigestJSON is the serialised form: the canonical (fully compressed)
// centroid list plus stream extremes and count.
type tdigestJSON struct {
	Compression float64   `json:"compression"`
	Count       int64     `json:"count"`
	Min         float64   `json:"min"`
	Max         float64   `json:"max"`
	Means       []float64 `json:"means"`
	Weights     []float64 `json:"weights"`
}

// MarshalJSON serialises the digest in canonical form: the buffer is folded
// (on a copy) so two digests with equal insertion sequences marshal to
// identical bytes regardless of when they were serialised.
func (t *TDigest) MarshalJSON() ([]byte, error) {
	j := tdigestJSON{Compression: t.compression, Count: t.count}
	j.Means, j.Weights = t.folded()
	if t.count > 0 {
		j.Min, j.Max = t.min, t.max
	}
	if j.Means == nil {
		j.Means = []float64{}
	}
	if j.Weights == nil {
		j.Weights = []float64{}
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a digest serialised by MarshalJSON.
func (t *TDigest) UnmarshalJSON(data []byte) error {
	var j tdigestJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("stats: tdigest: %w", err)
	}
	if j.Compression <= 0 {
		j.Compression = DefaultCompression
	}
	if len(j.Means) != len(j.Weights) {
		return fmt.Errorf("stats: tdigest: %d means vs %d weights", len(j.Means), len(j.Weights))
	}
	t.compression = j.Compression
	t.count = j.Count
	t.means = j.Means
	t.weights = j.Weights
	t.buf = nil
	if j.Count > 0 {
		t.min, t.max = j.Min, j.Max
	} else {
		t.min, t.max = math.Inf(1), math.Inf(-1)
	}
	return nil
}

// AppendWire appends the digest's binary form (see internal/wire) to b:
// compression, count, min and max, then the centroid count and each
// centroid's mean and weight. Like MarshalJSON it writes the canonical
// form, with the buffer folded on a copy, so a digest read back by
// ReadTDigest holds exactly the state one read back from JSON holds.
func (t *TDigest) AppendWire(b []byte) []byte {
	means, weights := t.folded()
	b = wire.AppendFloat(b, t.compression)
	b = binary.AppendVarint(b, t.count)
	b = wire.AppendFloat(b, t.min)
	b = wire.AppendFloat(b, t.max)
	b = binary.AppendUvarint(b, uint64(len(means)))
	for i, m := range means {
		b = wire.AppendFloat(b, m)
		b = wire.AppendFloat(b, weights[i])
	}
	return b
}

// ReadTDigest reads one digest written by AppendWire off d. Besides the
// byte layout it refuses states no digest can reach and queries could
// trip on: a compression that is not a finite positive number, a
// negative count, samples without centroids (or centroids without
// samples), and an empty digest whose extremes are not ±Inf.
func ReadTDigest(d *wire.Decoder) *TDigest {
	t := &TDigest{compression: d.Float(), count: d.Varint(), min: d.Float(), max: d.Float()}
	if n := d.Count(16); n > 0 {
		t.means = make([]float64, n)
		t.weights = make([]float64, n)
		for i := range t.means {
			t.means[i] = d.Float()
			t.weights[i] = d.Float()
		}
	}
	if !(t.compression > 0) || math.IsInf(t.compression, 1) || t.count < 0 ||
		(t.count == 0) != (len(t.means) == 0) ||
		(t.count == 0 && (!math.IsInf(t.min, 1) || !math.IsInf(t.max, -1))) {
		d.Fail()
	}
	return t
}
