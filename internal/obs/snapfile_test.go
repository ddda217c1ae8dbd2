package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runcache"
	"repro/internal/stats"
	"repro/internal/wire"
)

// fillSnapshot sets every exported field reachable from v to a non-zero
// value no other field shares: slices get two elements, pointers a filled
// value, and sketch groups two sketches of different sample counts.
func fillSnapshot(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillSnapshot(t, v.Field(i), next)
			}
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillSnapshot(t, p.Elem(), next)
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillSnapshot(t, s.Index(i), next)
		}
		v.Set(s)
	case reflect.Map:
		if v.Type() != reflect.TypeOf(map[string]*stats.MetricSketch(nil)) {
			t.Fatalf("fillSnapshot: no filler for %s", v.Type())
		}
		g := map[string]*stats.MetricSketch{}
		for i, samples := range []int{7, 600} {
			ms := new(stats.MetricSketch)
			for j := 0; j < samples; j++ {
				ms.Add(float64(n) + float64(j)/8)
			}
			g[fmt.Sprintf("metric%d_%d", n, i)] = ms
		}
		v.Set(reflect.ValueOf(g))
	case reflect.String:
		v.SetString(fmt.Sprintf("field%d", n))
	case reflect.Int, reflect.Int64:
		x := n * 1_000_003
		if n%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(uint64(n) << 33)
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillSnapshot: no filler for %s (%s)", v.Type(), v.Kind())
	}
}

// TestSnapshotCodecCoversEveryField fills every field of a Snapshot — its
// conditions, sketch groups, HealthPoint and runcache.Stats included —
// with distinct non-zero values and requires the binary layout to carry
// them all: the decoded snapshot re-encodes to the same bytes and
// renders the same JSON, full and deterministic. A field added to any of
// those types without codec support fails here.
func TestSnapshotCodecCoversEveryField(t *testing.T) {
	var want Snapshot
	var next int64
	fillSnapshot(t, reflect.ValueOf(&want).Elem(), &next)

	data := encodeSnapshot(&want)
	got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatalf("decodeSnapshot: %v", err)
	}
	if again := encodeSnapshot(got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded snapshot changed its bytes")
	}
	for name, render := range map[string]func(*Snapshot) ([]byte, error){
		"DeterministicJSON": (*Snapshot).DeterministicJSON,
		"json.Marshal":      func(s *Snapshot) ([]byte, error) { return json.Marshal(s) },
	} {
		w, err := render(&want)
		if err != nil {
			t.Fatal(err)
		}
		g, err := render(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s changed in the round trip:\n got %s\nwant %s", name, g, w)
		}
	}

	// Absent Health and Cache stay absent; an empty group decodes as an
	// empty map.
	got, err = decodeSnapshot(encodeSnapshot(&Snapshot{Schema: SnapshotSchema}))
	if err != nil || got.Health != nil || got.Cache != nil || got.Campaign == nil || len(got.Campaign) != 0 {
		t.Fatalf("empty snapshot: got %+v (err %v)", got, err)
	}
}

// reseal replaces data's trailing CRC with the right one for its body, so
// a test or the fuzzer can damage the body without the CRC catching it
// first.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	return wire.Seal(append([]byte(nil), data[:len(data)-4]...))
}

// handSnapshot frames a snapshot with no conditions, the given Campaign
// group body and nothing after it, for cases the encoder cannot produce.
func handSnapshot(campaign []byte) []byte {
	b := append([]byte(snapMagic), 0) // empty schema
	b = append(b, 0, 0, 0, 0)         // total, done, cached, interrupted
	b = wire.AppendFloat(b, 0)        // elapsed
	b = append(b, 0)                  // no conditions
	b = append(b, campaign...)
	b = append(b, 0, 0, 0) // empty Engine group, no Health, no Cache
	return wire.Seal(b)
}

// group renders a sketch group body with the given keys, in the given
// order, each holding sketch.
func group(sketch []byte, keys ...string) []byte {
	b := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = append(b, sketch...)
	}
	return b
}

func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	ag := NewAggregator()
	feed(ag, []string{"p/cubic/B25/q2.0x", "p/bbr/B25/q2.0x"}, 3, []int{0, 1, 2, 3, 4, 5})
	file := encodeSnapshot(ag.Snapshot())
	if _, err := decodeSnapshot(file); err != nil {
		t.Fatalf("real snapshot rejected: %v", err)
	}
	body := file[:len(file)-4]
	afterMagic := len(snapMagic)

	var one stats.MetricSketch
	one.Add(1)
	sketch := one.AppendWire(nil)
	// A one-sample sketch: n (1 byte), then mean, m2, min at 17 and max at
	// 25.
	patched := func(off int, val ...byte) []byte {
		s := append([]byte(nil), sketch...)
		copy(s[off:], val)
		return s
	}
	valid := handSnapshot(group(sketch))
	for _, data := range [][]byte{valid, handSnapshot(group(sketch, "a", "b"))} {
		if _, err := decodeSnapshot(data); err != nil {
			t.Fatalf("hand-built snapshot rejected: %v", err)
		}
	}

	// A header followed by a condition count of 2^40: the CRC is right,
	// the count claims far more bytes than remain.
	huge := append([]byte(snapMagic), 0, 0, 0, 0, 0)
	huge = wire.AppendFloat(huge, 0)
	huge = binary.AppendUvarint(huge, 1<<40)

	cases := map[string][]byte{
		"empty":          nil,
		"short":          []byte("gs"),
		"bad magic":      reseal(append([]byte("gssnap-v0\n"), file[afterMagic:]...)),
		"old layout":     reseal(append([]byte("gssnap-v1\n"), file[afterMagic:]...)),
		"json":           []byte(`{"schema":"gs-telemetry-v2"}`),
		"bad crc":        append(append([]byte(nil), body...), file[len(file)-4]^1, 0, 0, 0),
		"flipped body":   append(append(append([]byte(nil), body[:afterMagic]...), body[afterMagic]^0x40), file[afterMagic+1:]...),
		"huge count":     reseal(append(huge, 0, 0, 0, 0)),
		"truncated":      reseal(file[:len(file)-9]),
		"trailing bytes": reseal(append(append(append([]byte(nil), body...), 0), 0, 0, 0, 0)),
		// An empty schema string whose length is written in two bytes.
		"non-minimal varint":     reseal(append(append([]byte(snapMagic), 0x80, 0x00), valid[afterMagic+1:]...)),
		"bool byte 2":            reseal(append(append(append([]byte(nil), valid[:afterMagic+4]...), 2), valid[afterMagic+5:]...)),
		"unsorted keys":          handSnapshot(group(sketch, "b", "a")),
		"duplicate keys":         handSnapshot(group(sketch, "a", "a")),
		"negative n":             handSnapshot(group(patched(0, 0x01), "a")),
		"empty sketch with data": handSnapshot(group(patched(0, 0x00), "a")),
		"min above max":          handSnapshot(group(patched(17, wire.AppendFloat(nil, 2)...), "a")),
	}
	for name, data := range cases {
		if snap, err := decodeSnapshot(data); err == nil {
			t.Errorf("%s: accepted (schema %q)", name, snap.Schema)
		}
	}
	// The oversized count is refused before anything is allocated for it.
	if allocs := testing.AllocsPerRun(10, func() { _, _ = decodeSnapshot(cases["huge count"]) }); allocs > 1 {
		t.Errorf("huge count: %v allocations before rejecting", allocs)
	}
	// ReadSnapshot names the file it refuses.
	path := filepath.Join(t.TempDir(), "torn.snap")
	if err := os.WriteFile(path, cases["truncated"], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil || !bytes.Contains([]byte(err.Error()), []byte(path)) {
		t.Errorf("ReadSnapshot(torn file) = %v, want an error naming the file", err)
	}
}

// TestWriteSnapshotOverwrite: writing over an existing snapshot leaves
// exactly the new file, readable like one os.WriteFile writes: the publish
// goes through a temp file that the rename consumes.
func TestWriteSnapshotOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0000.snap")
	first := &Snapshot{Schema: SnapshotSchema, Total: 1}
	second := &Snapshot{Schema: SnapshotSchema, Total: 2}
	for _, s := range []*Snapshot{first, second} {
		if err := WriteSnapshot(path, s); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, filepath.Base(path))
	}
	if info, err := entries[0].Info(); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("snapshot file info %v (err %v), want mode 0644", info, err)
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total != 2 {
		t.Fatalf("read back Total %d, want the second write's 2", back.Total)
	}
	// A failed publish (the directory is gone) reports the error.
	if err := WriteSnapshot(filepath.Join(dir, "missing", "x.snap"), second); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// FuzzDecodeSnapshot feeds the snapshot decoder arbitrary bytes. It must
// never panic, and any file it accepts must re-encode to exactly the same
// bytes (the layout has one encoding per snapshot). Each input is also
// tried with its CRC repaired, so mutations reach the field parser instead
// of all stopping at the checksum.
func FuzzDecodeSnapshot(f *testing.F) {
	ag := NewAggregator()
	ag.CacheStats = func() runcache.Stats { return runcache.Stats{Hits: 3, Misses: 1, Stored: 1} }
	feed(ag, []string{"p/cubic/B25/q2.0x", "p/bbr/B25/q2.0x"}, 2, []int{0, 1, 2, 3})
	file := encodeSnapshot(ag.Snapshot())
	f.Add(file)
	f.Add(file[:len(file)/2])
	flipped := append([]byte(nil), file...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			s, err := decodeSnapshot(in)
			if err != nil {
				if s != nil {
					t.Fatal("decodeSnapshot returned a snapshot with its error")
				}
				continue
			}
			if out := encodeSnapshot(s); !bytes.Equal(out, in) {
				t.Fatalf("accepted file re-encodes differently:\n in %x\nout %x", in, out)
			}
			// Whatever decodes must survive what readers do with it.
			if _, err := MergeSnapshots([]*Snapshot{s, s}); err != nil && s.Schema == SnapshotSchema {
				t.Fatalf("merge of a decoded snapshot: %v", err)
			}
			for _, ms := range s.Campaign {
				ms.Min()
				ms.Max()
				ms.CI95()
			}
		}
	})
}
