package particle

import (
	"testing"

	"pscluster/internal/geom"
)

func benchParticles(n int) []Particle {
	r := geom.NewRNG(1)
	ps := make([]Particle, n)
	for i := range ps {
		ps[i] = Particle{
			Pos: geom.V(r.Range(0, 100), r.Range(-5, 5), r.Range(-5, 5)),
			Vel: r.UnitVec(), Age: r.Float64(), Alpha: 0.5, Size: 0.3,
		}
	}
	return ps
}

func BenchmarkStoreAdd(b *testing.B) {
	ps := benchParticles(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewColumnStore(geom.AxisX, 0, 100, 16)
		addAll(s, ps)
	}
}

func BenchmarkStorePartition(b *testing.B) {
	s := NewColumnStore(geom.AxisX, 0, 100, 16)
	addAll(s, benchParticles(10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EachBatch(func(b *Batch) {
			for i := range b.Pos {
				b.Pos[i].X += 0.05
			}
		})
		s.AddBatch(s.PartitionBatch()) // keep the population stable
	}
}

// BenchmarkExchangeEncode times the exchange-path serializer: whole
// columns streamed into one buffer per batch, never released here
// (BenchmarkPooledEncode recycles them).
func BenchmarkExchangeEncode(b *testing.B) {
	var cols Batch
	cols.AppendSlice(benchParticles(1000))
	b.SetBytes(int64(BatchBytes(cols.Len())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cols.EncodeWire()
	}
}

// BenchmarkExchangeDecode times the receive path: DecodeWireInto reuses
// the scratch batch's column capacity — zero allocations at steady
// state.
func BenchmarkExchangeDecode(b *testing.B) {
	var cols, scratch Batch
	cols.AppendSlice(benchParticles(1000))
	buf := cols.EncodeWire()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := scratch.DecodeWireInto(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectDonation(b *testing.B) {
	s := NewColumnStore(geom.AxisX, 0, 100, 16)
	addAll(s, benchParticles(10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		donated, _ := s.DonateBatch(500, LowSide)
		s.Resize(0, 100)
		s.AddBatch(donated)
	}
}
