package experiment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// fillDistinct sets every exported field reachable from v to a non-zero
// value no other field shares: slices get two elements, signed integers
// alternate in sign (so the zigzag varints see both), and magnitudes grow
// with the counter so multi-byte varints are exercised too.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), next)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillDistinct(t, s.Index(i), next)
		}
		v.Set(s)
	case reflect.String:
		v.SetString(fmt.Sprintf("field%d", n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := n * 1_000_003
		if n%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n) << 33)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillDistinct: no filler for %s (%s)", v.Type(), v.Kind())
	}
}

// TestRunCodecCoversEveryField fills every persisted field of a RunResult
// — everything but Cfg, which a hit takes from the request, and the live
// Probe capture — with distinct non-zero values and requires the codec to
// round-trip them all. A field added to RunResult (or to sim.Stats,
// netem.ImpairStats, FlowStats, FlowSummary, ...) without codec support
// fails here.
func TestRunCodecCoversEveryField(t *testing.T) {
	var want RunResult
	rv := reflect.ValueOf(&want).Elem()
	var next int64
	for i := 0; i < rv.NumField(); i++ {
		switch name := rv.Type().Field(i).Name; name {
		case "Cfg", "Probe":
		default:
			fillDistinct(t, rv.Field(i), &next)
		}
	}
	data := encodeRun(&want)
	got, err := decodeRun(data)
	if err != nil {
		t.Fatalf("decodeRun: %v", err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v", *got, want)
	}
	if again := encodeRun(got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded run changed its bytes")
	}

	// Nil and empty slices share one encoding, and it decodes as nil.
	got, err = decodeRun(encodeRun(&RunResult{GameMbps: []float64{}, Flows: []FlowStats{}}))
	if err != nil || got.GameMbps != nil || got.Flows != nil {
		t.Fatalf("empty slices: got %v, %v (err %v); want nil", got.GameMbps, got.Flows, err)
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

func TestDecodeRunRejectsMalformed(t *testing.T) {
	r := Run(cacheCfg(42))
	entry := encodeRun(r)
	if _, err := decodeRun(entry); err != nil {
		t.Fatalf("real entry rejected: %v", err)
	}
	body := entry[:len(entry)-4]
	afterMagic := len(runMagic)

	// An entry whose Bin varint is followed by a GameMbps count of 2^40:
	// the CRC is right, the count claims far more bytes than remain.
	huge := binary.AppendVarint([]byte(runMagic), 1)
	huge = binary.AppendUvarint(huge, 1<<40)

	cases := map[string][]byte{
		"empty":          nil,
		"short":          []byte("gs"),
		"bad magic":      reseal(append([]byte("gsrun-v5\n"), entry[afterMagic:]...)),
		"bad crc":        append(append([]byte(nil), body...), entry[len(entry)-4]^1, 0, 0, 0),
		"flipped body":   append(append(append([]byte(nil), body[:afterMagic]...), body[afterMagic]^0x40), entry[afterMagic+1:]...),
		"huge count":     reseal(append(huge, 0, 0, 0, 0)),
		"truncated":      reseal(entry[:len(entry)-9]),
		"trailing bytes": reseal(append(append(append([]byte(nil), body...), 0), 0, 0, 0, 0)),
		// Bin = 0 written in two bytes: it decodes to the same value but
		// would not re-encode to the same entry.
		"non-minimal varint": reseal(append(append([]byte(runMagic), 0x80, 0x00), encodeRun(&RunResult{})[afterMagic+1:]...)),
	}
	if _, err := decodeRun(encodeRun(&RunResult{})); err != nil {
		t.Fatalf("zero run rejected: %v", err)
	}
	for name, data := range cases {
		if res, err := decodeRun(data); err == nil {
			t.Errorf("%s: accepted (Bin %v)", name, res.Bin)
		}
	}
	// The oversized count is refused before anything is allocated for it.
	if allocs := testing.AllocsPerRun(10, func() { _, _ = decodeRun(cases["huge count"]) }); allocs > 1 {
		t.Errorf("huge count: %v allocations before rejecting", allocs)
	}
}

// FuzzDecodeRun feeds the cache-entry decoder arbitrary bytes. It must
// never panic, and any entry it accepts must re-encode to exactly the
// same bytes (the layout has one encoding per run). Each input is also
// tried with its CRC repaired, so mutations reach the field parser
// instead of all stopping at the checksum.
func FuzzDecodeRun(f *testing.F) {
	entry := encodeRun(Run(cacheCfg(42)))
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	flipped := append([]byte(nil), entry...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	f.Add(encodeRun(&RunResult{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			r, err := decodeRun(in)
			if err != nil {
				if r != nil {
					t.Fatal("decodeRun returned a result with its error")
				}
				continue
			}
			if out := encodeRun(r); !bytes.Equal(out, in) {
				t.Fatalf("accepted entry re-encodes differently:\n in %x\nout %x", in, out)
			}
		}
	})
}

// BenchmarkRunCodec times one cache put's encode and one hit's decode of a
// small paper-grid run's entry.
func BenchmarkRunCodec(b *testing.B) {
	r := Run(cacheCfg(42))
	entry := encodeRun(r)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(entry)))
		for i := 0; i < b.N; i++ {
			encodeRun(r)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(entry)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeRun(entry); err != nil {
				b.Fatal(err)
			}
		}
	})
}
