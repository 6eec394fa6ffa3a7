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

// BenchmarkStorePartitionOwned is BenchmarkStorePartition under a
// Voronoi-shaped ownership predicate, as the Voronoi decomposition
// partitions: the store keeps what lies nearer its own site than the
// two neighbouring ones. The drift alternates direction so the
// population stays around the store's region.
func BenchmarkStorePartitionOwned(b *testing.B) {
	s := NewColumnStore(geom.AxisX, 0, 100, 16)
	addAll(s, benchParticles(10000))
	own, others := geom.V(50, 0, 0), []geom.Vec3{geom.V(-50, 0, 0), geom.V(150, 0, 0)}
	keep := func(p geom.Vec3) bool {
		d := p.Sub(own).Len2()
		for _, o := range others {
			if p.Sub(o).Len2() < d {
				return false
			}
		}
		return true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dx := 0.05
		if i%2 == 1 {
			dx = -dx
		}
		s.EachBatch(func(b *Batch) {
			for i := range b.Pos {
				b.Pos[i].X += dx
			}
		})
		s.AddBatch(s.PartitionOwnedBatch(keep)) // keep the population stable
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
