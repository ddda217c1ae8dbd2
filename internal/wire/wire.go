// Package wire holds the byte-level primitives of the repository's
// hand-written binary file formats: the run-cache entry codec
// (internal/experiment) and the telemetry snapshot codec (internal/obs,
// with the sketch layout in internal/stats).
//
// Every format built on it has the same frame: a magic line naming the
// format and its version, the fields in a fixed order, then a
// little-endian CRC-32C of everything before it. Integers are varints
// (zigzag for signed values), floats their raw IEEE-754 bits (8 bytes,
// little-endian), booleans one byte, and strings and slices a uvarint
// length followed by their elements. A Decoder accepts exactly one
// encoding of each value, so an accepted file re-encodes to the same
// bytes, and it never allocates for a length the remaining bytes cannot
// hold.
package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// crcTable is the table of the CRC-32C that closes every file.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal appends the little-endian CRC-32C of b to b.
func Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// Open checks data's frame — it starts with magic and ends with the CRC
// Seal would append to everything before the CRC — and returns a Decoder
// over the fields in between. ok is false for any other input.
func Open(data []byte, magic string) (d Decoder, ok bool) {
	n := len(data) - 4
	if n < len(magic) || string(data[:len(magic)]) != magic ||
		crc32.Checksum(data[:n], crcTable) != binary.LittleEndian.Uint32(data[n:]) {
		return Decoder{}, false
	}
	return Decoder{b: data[len(magic):n]}, true
}

// AppendFloat appends v's raw bits.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloats appends len(vs), then each value's raw bits.
func AppendFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendFloat(b, v)
	}
	return b
}

// AppendString appends len(s), then s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Decoder reads fields off the front of a frame's body. The first
// malformed field marks it bad; every read after that returns zero, so a
// caller checks once, with Done, at the end.
type Decoder struct {
	b   []byte
	bad bool
}

// Fail marks the input malformed: for a value the byte layout allows but
// the format does not.
func (d *Decoder) Fail() {
	d.bad = true
	d.b = nil
}

// OK reports whether every read so far succeeded.
func (d *Decoder) OK() bool { return !d.bad }

// Done reports whether every read succeeded and consumed the whole body:
// false for a malformed field, a truncated body or trailing bytes.
func (d *Decoder) Done() bool { return !d.bad && len(d.b) == 0 }

// Uvarint reads one minimally encoded uvarint: a longer encoding of the
// same value would decode but not re-encode to the same bytes.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.Fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zigzag varint, as binary.AppendVarint writes it.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a varint that must fit the platform's int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail()
		return 0
	}
	return int(v)
}

// Float reads one float's raw bits.
func (d *Decoder) Float() float64 {
	if len(d.b) < 8 {
		d.Fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.Fail()
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// Count reads a length prefix for elements of at least minSize bytes
// each, failing when the bytes left cannot hold that many. Callers
// allocate only after it returns, so a hostile prefix costs nothing.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.Fail()
		return 0
	}
	return int(n)
}

// Floats reads what AppendFloats writes; zero values decode as nil.
func (d *Decoder) Floats() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return vs
}

// Str reads what AppendString writes. (Not String: a Decoder must not be
// a fmt.Stringer that consumes its input when printed.)
func (d *Decoder) Str() string {
	n := d.Count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
