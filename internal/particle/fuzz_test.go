package particle

import (
	"bytes"
	"testing"

	"pscluster/internal/geom"
)

// FuzzDecodeBatch drives the batch decoder with arbitrary bytes: it
// must either error or round-trip cleanly, never panic.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch(make([]Particle, 3)))
	r := geom.NewRNG(9)
	ps := make([]Particle, 5)
	for i := range ps {
		ps[i].Pos = r.UnitVec().Scale(50)
		ps[i].Vel = r.UnitVec()
		ps[i].Rand = r.Uint64()
	}
	f.Add(EncodeBatch(ps))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// Valid batches must re-encode to the identical bytes.
		re := EncodeBatch(decoded)
		if len(re) != len(data) {
			t.Fatalf("re-encode changed size: %d -> %d", len(data), len(re))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("re-encode differs at byte %d", i)
			}
		}
	})
}

// FuzzDecodeParticleBatch differentially fuzzes the two wire decoders:
// the columnar DecodeWire must accept exactly the inputs the record
// DecodeBatch accepts, produce the identical particles, and re-encode
// via EncodeWire to the identical bytes — never panicking on either
// path.
func FuzzDecodeParticleBatch(f *testing.F) {
	r := geom.NewRNG(11)
	ps := make([]Particle, 6)
	for i := range ps {
		ps[i].Pos = r.UnitVec().Scale(30)
		ps[i].Up = r.UnitVec()
		ps[i].Vel = r.UnitVec()
		ps[i].Color = geom.V(r.Float64(), r.Float64(), r.Float64())
		ps[i].Age, ps[i].Alpha, ps[i].Size = r.Float64(), r.Float64(), r.Float64()
		ps[i].Rand = r.Uint64()
		ps[i].Dead = i%2 == 0
	}
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch(ps))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1})
	for _, payload := range corruptPayloads() {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, errRec := DecodeBatch(data)
		cols, errCol := DecodeWire(data)
		if (errRec == nil) != (errCol == nil) {
			t.Fatalf("decoders disagree: record err=%v, columnar err=%v", errRec, errCol)
		}
		if errRec != nil {
			return
		}
		if len(rec) != cols.Len() {
			t.Fatalf("decoded lengths differ: %d vs %d", len(rec), cols.Len())
		}
		for i := range rec {
			// Compare the bits through the record codec: a NaN field
			// is never == itself, and −0 == +0.
			if !bytes.Equal(EncodeBatch(rec[i:i+1]), EncodeBatch([]Particle{cols.At(i)})) {
				t.Fatalf("decoded particle %d differs", i)
			}
		}
		re := cols.EncodeWire()
		if len(re) != len(data) {
			t.Fatalf("re-encode changed size: %d -> %d", len(data), len(re))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("re-encode differs at byte %d", i)
			}
		}
	})
}

// FuzzStoreOperations drives the sub-domain store with arbitrary
// particle coordinates, donation sizes and kill masks (particle i of the
// store order dies when bit i%64 of kill is set): invariants must hold
// for any input, and a partition that meets the dead must leave what
// RemoveDead then partition leaves.
func FuzzStoreOperations(f *testing.F) {
	f.Add(int64(1), uint16(10), uint16(3), false, uint64(0))
	f.Add(int64(42), uint16(500), uint16(100), true, uint64(0x8421_8421_8421_8421))
	f.Add(int64(7), uint16(1), uint16(0), false, ^uint64(0))

	f.Fuzz(func(t *testing.T, seed int64, nRaw, donateRaw uint16, high bool, kill uint64) {
		n := int(nRaw)%1000 + 1
		donate := int(donateRaw) % (n + 10)
		s := NewColumnStore(geom.AxisX, -50, 50, 8)
		r := geom.NewRNG(uint64(seed))
		for i := 0; i < n; i++ {
			s.Add(Particle{Pos: geom.V(r.Range(-200, 200), r.Range(-5, 5), 0)})
		}
		if s.Len() != n {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		side := LowSide
		if high {
			side = HighSide
		}
		donated, _ := s.DonateBatch(donate, side)
		if donated.Len()+s.Len() != n {
			t.Fatalf("donation lost particles: %d + %d != %d", donated.Len(), s.Len(), n)
		}
		if lo, hi := s.Bounds(); hi < lo {
			t.Fatalf("store bounds inverted: [%g, %g)", lo, hi)
		}
		i := 0
		s.EachBatch(func(b *Batch) {
			for j := range b.Dead {
				b.Dead[j] = kill>>(i%64)&1 == 1
				i++
			}
		})
		live := s.Live()
		out := s.PartitionBatch()
		if out.Len()+s.Len() != live || s.Live() != s.Len() {
			t.Fatalf("partition of %d live particles: %d out, %d kept (%d live)", live, out.Len(), s.Len(), s.Live())
		}
		for _, pp := range partitionPredicates {
			checkPartitionDropsDead(t, uint64(seed), kill, n, pp.part)
		}
	})
}
