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

func BenchmarkEncodeBatch(b *testing.B) {
	ps := benchParticles(1000)
	b.SetBytes(int64(BatchBytes(len(ps))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeBatch(ps)
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	buf := EncodeBatch(benchParticles(1000))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreAdd(b *testing.B) {
	ps := benchParticles(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewColumnStore(geom.AxisX, 0, 100, 16)
		s.AddSlice(ps)
	}
}

func BenchmarkStorePartition(b *testing.B) {
	s := NewColumnStore(geom.AxisX, 0, 100, 16)
	s.AddSlice(benchParticles(10000))
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

// BenchmarkExchangeEncode compares the exchange-path serializers: the
// record codec copies each particle into a 140-byte staging record and
// appends it; the columnar codec streams whole columns into one
// preallocated buffer — exactly one allocation per batch.
func BenchmarkExchangeEncode(b *testing.B) {
	ps := benchParticles(1000)
	var cols Batch
	cols.AppendSlice(ps)
	b.Run("aos", func(b *testing.B) {
		b.SetBytes(int64(BatchBytes(len(ps))))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeBatch(ps)
		}
	})
	b.Run("soa", func(b *testing.B) {
		b.SetBytes(int64(BatchBytes(len(ps))))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cols.EncodeWire()
		}
	})
}

// BenchmarkExchangeDecode compares the receive paths: the record codec
// allocates a fresh particle slice per message; DecodeWireInto reuses
// the scratch batch's column capacity — zero allocations at steady
// state.
func BenchmarkExchangeDecode(b *testing.B) {
	buf := EncodeBatch(benchParticles(1000))
	b.Run("aos", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBatch(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("soa", func(b *testing.B) {
		var scratch Batch
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := scratch.DecodeWireInto(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSelectDonation(b *testing.B) {
	s := NewColumnStore(geom.AxisX, 0, 100, 16)
	s.AddSlice(benchParticles(10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		donated, _ := s.DonateBatch(500, LowSide)
		s.Resize(0, 100)
		s.AddBatch(donated)
	}
}
