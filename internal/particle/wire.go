package particle

import (
	"encoding/binary"
	"fmt"
	"math"

	"pscluster/internal/bufpool"
)

// Columnar wire codec. A particle batch travels as a 4-byte
// little-endian count followed by that many WireSize-byte records; a
// record holds, little-endian at these byte offsets, Pos 0, Up 24, Vel
// 48, Color 72 (three float64 each), Age 96, Alpha 104, Size 112, a
// uint32 flag word at 120 (bit 0 = Dead, every other bit must be zero),
// Rand at 124, and eight reserved zero bytes at 132. The codec streams
// whole columns through one buffer rather than writing a record at a
// time. EncodeWire draws its buffer from the capacity-keyed wire pool —
// zero steady-state allocations once the receiver releases payloads
// back — and DecodeWireInto allocates nothing at steady state. The
// record-at-a-time codec survives as the tests' oracle.

// putF64Col writes one float64 column at byte offset off of every
// record in buf (stride WireSize past the 4-byte header).
func putF64Col(buf []byte, off int, col []float64) {
	for i, v := range col {
		binary.LittleEndian.PutUint64(buf[4+i*WireSize+off:], math.Float64bits(v))
	}
}

// EncodeWire encodes the batch into one pooled buffer in the wire
// format. The buffer belongs to the message it is sent in: its unique
// receiver returns it to the pool after decoding (see
// transport.Message.Release).
func (b *Batch) EncodeWire() []byte {
	n := b.Len()
	buf := bufpool.Get(BatchBytes(n))
	binary.LittleEndian.PutUint32(buf, uint32(n))
	le := binary.LittleEndian
	for i, v := range b.Pos {
		rec := buf[4+i*WireSize:]
		le.PutUint64(rec[0:], math.Float64bits(v.X))
		le.PutUint64(rec[8:], math.Float64bits(v.Y))
		le.PutUint64(rec[16:], math.Float64bits(v.Z))
	}
	for i, v := range b.Up {
		rec := buf[4+i*WireSize:]
		le.PutUint64(rec[24:], math.Float64bits(v.X))
		le.PutUint64(rec[32:], math.Float64bits(v.Y))
		le.PutUint64(rec[40:], math.Float64bits(v.Z))
	}
	for i, v := range b.Vel {
		rec := buf[4+i*WireSize:]
		le.PutUint64(rec[48:], math.Float64bits(v.X))
		le.PutUint64(rec[56:], math.Float64bits(v.Y))
		le.PutUint64(rec[64:], math.Float64bits(v.Z))
	}
	for i, v := range b.Color {
		rec := buf[4+i*WireSize:]
		le.PutUint64(rec[72:], math.Float64bits(v.X))
		le.PutUint64(rec[80:], math.Float64bits(v.Y))
		le.PutUint64(rec[88:], math.Float64bits(v.Z))
	}
	putF64Col(buf, 96, b.Age)
	putF64Col(buf, 104, b.Alpha)
	putF64Col(buf, 112, b.Size)
	for i, dead := range b.Dead {
		var flags uint32
		if dead {
			flags = 1
		}
		le.PutUint32(buf[4+i*WireSize+120:], flags)
	}
	for i, r := range b.Rand {
		le.PutUint64(buf[4+i*WireSize+124:], r)
	}
	// Bytes 132..139 of each record are the reserved zero padding.
	// Pooled buffers come back dirty, so the padding is written
	// explicitly (DecodeWireInto validates it is zero).
	for i := 0; i < n; i++ {
		le.PutUint64(buf[4+i*WireSize+132:], 0)
	}
	return buf
}

// DecodeWire decodes an EncodeWire payload into a fresh batch,
// accepting and rejecting exactly the inputs DecodeWireInto does.
func DecodeWire(buf []byte) (*Batch, error) {
	b := &Batch{}
	if err := b.DecodeWireInto(buf); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeWireInto decodes an EncodeWire payload into b, reusing b's
// column capacity. It rejects a payload whose length disagrees with its
// count, with unknown flag bits or with non-zero padding.
func (b *Batch) DecodeWireInto(buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("particle: short batch header: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf)-4 != n*WireSize {
		return fmt.Errorf("particle: batch of %d particles needs %d bytes, have %d",
			n, n*WireSize, len(buf)-4)
	}
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		rec := buf[4+i*WireSize:]
		if flags := le.Uint32(rec[120:]); flags&^uint32(1) != 0 {
			return fmt.Errorf("particle: unknown flag bits %#x", flags)
		}
		for _, pad := range rec[132:WireSize] {
			if pad != 0 {
				return fmt.Errorf("particle: non-zero padding byte")
			}
		}
	}
	b.Clear()
	b.Grow(n)
	// Fill record-major: each 140-byte record is touched once, scattering
	// into the columns, so the pass stays cache-friendly.
	for i := range b.Pos {
		rec := buf[4+i*WireSize:]
		b.Pos[i].X = math.Float64frombits(le.Uint64(rec[0:]))
		b.Pos[i].Y = math.Float64frombits(le.Uint64(rec[8:]))
		b.Pos[i].Z = math.Float64frombits(le.Uint64(rec[16:]))
		b.Up[i].X = math.Float64frombits(le.Uint64(rec[24:]))
		b.Up[i].Y = math.Float64frombits(le.Uint64(rec[32:]))
		b.Up[i].Z = math.Float64frombits(le.Uint64(rec[40:]))
		b.Vel[i].X = math.Float64frombits(le.Uint64(rec[48:]))
		b.Vel[i].Y = math.Float64frombits(le.Uint64(rec[56:]))
		b.Vel[i].Z = math.Float64frombits(le.Uint64(rec[64:]))
		b.Color[i].X = math.Float64frombits(le.Uint64(rec[72:]))
		b.Color[i].Y = math.Float64frombits(le.Uint64(rec[80:]))
		b.Color[i].Z = math.Float64frombits(le.Uint64(rec[88:]))
		b.Age[i] = math.Float64frombits(le.Uint64(rec[96:]))
		b.Alpha[i] = math.Float64frombits(le.Uint64(rec[104:]))
		b.Size[i] = math.Float64frombits(le.Uint64(rec[112:]))
		b.Dead[i] = le.Uint32(rec[120:])&1 != 0
		b.Rand[i] = le.Uint64(rec[124:])
	}
	return nil
}
