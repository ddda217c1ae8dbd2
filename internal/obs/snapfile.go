package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/runcache"
	"repro/internal/stats"
	"repro/internal/wire"
)

// snapMagic opens every snapshot file. It names the binary layout, not the
// telemetry schema: SnapshotSchema is a field inside the file (and in the
// JSON renderings), so each can change without the other.
const snapMagic = "gssnap-v2\n"

// IsSnapshot reports whether head, the first bytes of a file, opens with
// the snapshot magic: how a reader tells a snapshot from other artefacts
// whatever the file is called.
func IsSnapshot(head []byte) bool { return strings.HasPrefix(string(head), snapMagic) }

// errBadSnapshot is what decodeSnapshot returns for any file it does not
// accept.
var errBadSnapshot = errors.New("malformed snapshot file")

// WriteSnapshot persists a snapshot at path in the binary snapshot layout
// (see encodeSnapshot). It publishes through a temp file renamed into
// place, so a reader — or a campaign treating the file as a done marker —
// sees the old file or the new one, never a torn one.
func WriteSnapshot(path string, snap *Snapshot) error {
	if err := runcache.WriteFileAtomic(path, encodeSnapshot(snap)); err != nil {
		return fmt.Errorf("obs: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot, refusing a
// malformed file and one from another telemetry schema.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read snapshot: %w", err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("obs: decode snapshot %s: %w", path, err)
	}
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("obs: snapshot %s has schema %q, want %q", path, snap.Schema, SnapshotSchema)
	}
	return snap, nil
}

// encodeSnapshot renders snap in the internal/wire frame: snapMagic; the
// header (Schema, Total, Done, Cached, Interrupted, ElapsedS); the
// conditions in order, each its Cond, Runs, Cached, WallS and its Metrics
// and Engine groups; the Campaign and Engine groups; Health and Cache, each
// a presence byte followed by the fields; then the CRC-32C. A sketch group
// is its length, then each key and sketch (stats.MetricSketch.AppendWire)
// in sorted-key order. Nil and empty groups share one encoding. The layout
// is fixed by this function and decodeSnapshot alone; change both together
// and bump snapMagic.
func encodeSnapshot(s *Snapshot) []byte {
	b := make([]byte, 0, 4096)
	b = append(b, snapMagic...)
	b = wire.AppendString(b, s.Schema)
	b = binary.AppendVarint(b, int64(s.Total))
	b = binary.AppendVarint(b, int64(s.Done))
	b = binary.AppendVarint(b, int64(s.Cached))
	b = wire.AppendBool(b, s.Interrupted)
	b = wire.AppendFloat(b, s.ElapsedS)

	b = binary.AppendUvarint(b, uint64(len(s.Conditions)))
	for i := range s.Conditions {
		c := &s.Conditions[i]
		b = wire.AppendString(b, c.Cond)
		b = binary.AppendVarint(b, int64(c.Runs))
		b = binary.AppendVarint(b, int64(c.Cached))
		b = wire.AppendFloat(b, c.WallS)
		b = appendGroup(b, c.Metrics)
		b = appendGroup(b, c.Engine)
	}
	b = appendGroup(b, s.Campaign)
	b = appendGroup(b, s.Engine)

	b = wire.AppendBool(b, s.Health != nil)
	if h := s.Health; h != nil {
		b = wire.AppendFloat(b, h.TimeS)
		b = binary.AppendVarint(b, int64(h.Done))
		b = binary.AppendVarint(b, int64(h.Total))
		b = wire.AppendFloat(b, h.Pct)
		b = wire.AppendFloat(b, h.ETAS)
		b = wire.AppendFloat(b, h.RunsPerS)
		b = binary.AppendUvarint(b, h.CacheHits)
		b = binary.AppendUvarint(b, h.CacheLookups)
		b = wire.AppendFloat(b, h.CacheHitPct)
		b = wire.AppendBool(b, h.Final)
	}
	b = wire.AppendBool(b, s.Cache != nil)
	if cs := s.Cache; cs != nil {
		for _, v := range [...]uint64{
			cs.Hits, cs.Misses, cs.Stored, cs.Bypassed, cs.Errors, cs.BytesRead, cs.BytesWritten,
		} {
			b = binary.AppendUvarint(b, v)
		}
	}
	return wire.Seal(b)
}

// appendGroup writes one sketch group in sorted-key order. A nil sketch is
// written as an empty one.
func appendGroup(b []byte, g map[string]*stats.MetricSketch) []byte {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k)
		ms := g[k]
		if ms == nil {
			ms = new(stats.MetricSketch)
		}
		b = ms.AppendWire(b)
	}
	return b
}

// decodeSnapshot parses a file written by encodeSnapshot. Like the run
// cache's decoder it rejects a bad magic, a bad CRC, a non-minimal varint,
// a length prefix larger than the bytes left could hold, a truncated
// field and trailing bytes, plus group keys out of sorted order and sketch
// states stats.ReadMetricSketch refuses, so an accepted file re-encodes to
// exactly its own bytes. Every group decodes as a non-nil map. It does not
// check the schema; ReadSnapshot does.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	d, ok := wire.Open(data, snapMagic)
	if !ok {
		return nil, errBadSnapshot
	}
	s := &Snapshot{
		Schema:      d.Str(),
		Total:       d.Int(),
		Done:        d.Int(),
		Cached:      d.Int(),
		Interrupted: d.Bool(),
		ElapsedS:    d.Float(),
	}
	// A condition is at least an empty name, two one-byte varints, a float
	// and two empty groups.
	if k := d.Count(1 + 2 + 8 + 2); k > 0 {
		s.Conditions = make([]CondSketches, k)
		for i := range s.Conditions {
			c := &s.Conditions[i]
			c.Cond = d.Str()
			c.Runs = d.Int()
			c.Cached = d.Int()
			c.WallS = d.Float()
			c.Metrics = readGroup(&d)
			c.Engine = readGroup(&d)
		}
	}
	s.Campaign = readGroup(&d)
	s.Engine = readGroup(&d)

	if d.Bool() {
		s.Health = &HealthPoint{
			TimeS:        d.Float(),
			Done:         d.Int(),
			Total:        d.Int(),
			Pct:          d.Float(),
			ETAS:         d.Float(),
			RunsPerS:     d.Float(),
			CacheHits:    d.Uvarint(),
			CacheLookups: d.Uvarint(),
			CacheHitPct:  d.Float(),
			Final:        d.Bool(),
		}
	}
	if d.Bool() {
		s.Cache = &runcache.Stats{
			Hits:         d.Uvarint(),
			Misses:       d.Uvarint(),
			Stored:       d.Uvarint(),
			Bypassed:     d.Uvarint(),
			Errors:       d.Uvarint(),
			BytesRead:    d.Uvarint(),
			BytesWritten: d.Uvarint(),
		}
	}
	if !d.Done() {
		return nil, errBadSnapshot
	}
	return s, nil
}

// minSketchSize is the size of an encoded sketch with a one-byte n: n,
// then four floats (mean, m2, min, max).
const minSketchSize = 1 + 4*8

// readGroup reads what appendGroup writes, failing d on a key that does
// not sort strictly after the one before it. After a failed read it
// allocates nothing.
func readGroup(d *wire.Decoder) map[string]*stats.MetricSketch {
	k := d.Count(1 + minSketchSize)
	if !d.OK() {
		return nil
	}
	g := make(map[string]*stats.MetricSketch, k)
	prev := ""
	for i := 0; i < k; i++ {
		key := d.Str()
		if i > 0 && key <= prev {
			d.Fail()
			break
		}
		g[key] = stats.ReadMetricSketch(d)
		prev = key
	}
	return g
}
