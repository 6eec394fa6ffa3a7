package particle

import (
	"encoding/binary"
	"fmt"
	"math"

	"pscluster/internal/geom"
)

// The record codec: the wire format written one particle record at a
// time, the way the format is specified (wire.go). It is the oracle the
// columnar EncodeWire/DecodeWireInto are held to, byte for byte and
// error for error, by TestEncodeWireMatchesEncodeBatch and the fuzzers.

// EncodeInto writes the wire representation of p into b, which must
// hold at least WireSize bytes, every byte included: the reserved zero
// padding at 132..139 too.
func (p *Particle) EncodeInto(b []byte) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], math.Float64bits(p.Pos.X))
	le.PutUint64(b[8:], math.Float64bits(p.Pos.Y))
	le.PutUint64(b[16:], math.Float64bits(p.Pos.Z))
	le.PutUint64(b[24:], math.Float64bits(p.Up.X))
	le.PutUint64(b[32:], math.Float64bits(p.Up.Y))
	le.PutUint64(b[40:], math.Float64bits(p.Up.Z))
	le.PutUint64(b[48:], math.Float64bits(p.Vel.X))
	le.PutUint64(b[56:], math.Float64bits(p.Vel.Y))
	le.PutUint64(b[64:], math.Float64bits(p.Vel.Z))
	le.PutUint64(b[72:], math.Float64bits(p.Color.X))
	le.PutUint64(b[80:], math.Float64bits(p.Color.Y))
	le.PutUint64(b[88:], math.Float64bits(p.Color.Z))
	le.PutUint64(b[96:], math.Float64bits(p.Age))
	le.PutUint64(b[104:], math.Float64bits(p.Alpha))
	le.PutUint64(b[112:], math.Float64bits(p.Size))
	var flags uint32
	if p.Dead {
		flags |= 1
	}
	le.PutUint32(b[120:], flags)
	le.PutUint64(b[124:], p.Rand)
	le.PutUint64(b[132:], 0)
}

// Encode appends the wire representation of p to buf and returns the
// extended slice.
func (p *Particle) Encode(buf []byte) []byte {
	var tmp [WireSize]byte
	p.EncodeInto(tmp[:])
	return append(buf, tmp[:]...)
}

// Decode reads one particle from buf, which must hold at least WireSize
// bytes, and returns the remaining slice.
func (p *Particle) Decode(buf []byte) ([]byte, error) {
	if len(buf) < WireSize {
		return buf, fmt.Errorf("particle: short buffer: %d < %d", len(buf), WireSize)
	}
	le := binary.LittleEndian
	get := func(off int) float64 { return math.Float64frombits(le.Uint64(buf[off:])) }
	p.Pos = geom.V(get(0), get(8), get(16))
	p.Up = geom.V(get(24), get(32), get(40))
	p.Vel = geom.V(get(48), get(56), get(64))
	p.Color = geom.V(get(72), get(80), get(88))
	p.Age = get(96)
	p.Alpha = get(104)
	p.Size = get(112)
	flags := le.Uint32(buf[120:])
	if flags&^uint32(1) != 0 {
		return buf, fmt.Errorf("particle: unknown flag bits %#x", flags)
	}
	p.Dead = flags&1 != 0
	p.Rand = le.Uint64(buf[124:])
	for _, b := range buf[132:WireSize] {
		if b != 0 {
			return buf, fmt.Errorf("particle: non-zero padding byte")
		}
	}
	return buf[WireSize:], nil
}

// EncodeBatch encodes a slice of particles with the 4-byte count prefix.
func EncodeBatch(ps []Particle) []byte {
	buf := make([]byte, BatchBytes(len(ps)))
	binary.LittleEndian.PutUint32(buf, uint32(len(ps)))
	for i := range ps {
		ps[i].EncodeInto(buf[4+i*WireSize:])
	}
	return buf
}

// DecodeBatch decodes a batch produced by EncodeBatch.
func DecodeBatch(buf []byte) ([]Particle, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("particle: short batch header: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) != n*WireSize {
		return nil, fmt.Errorf("particle: batch of %d particles needs %d bytes, have %d",
			n, n*WireSize, len(buf))
	}
	ps := make([]Particle, n)
	var err error
	for i := range ps {
		if buf, err = ps[i].Decode(buf); err != nil {
			return nil, err
		}
	}
	return ps, nil
}
