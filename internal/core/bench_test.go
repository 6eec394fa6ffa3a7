package core

import (
	"testing"

	"pscluster/internal/bufpool"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// benchSum keeps the benchmarked checksums live.
var benchSum uint64

// BenchmarkHashRenderRecords times the non-raster frame checksum over
// one 8 000-record render batch, against its hash/fnv oracle.
func BenchmarkHashRenderRecords(b *testing.B) {
	blob := randomRenderBlob(geom.NewRNG(1), 8000, 0)
	for _, bc := range []struct {
		name string
		hash func([]byte) uint64
	}{{"four-lane", hashRenderRecords}, {"fnv-oracle", fnvRenderRecords}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				benchSum += bc.hash(blob)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8000, "ns/particle")
		})
	}
}

// BenchmarkEncodeRenderSet times the calculators' render send encode:
// 8 bins of 1 000 particles narrowed to float32 render records.
func BenchmarkEncodeRenderSet(b *testing.B) {
	st := particle.NewColumnStore(geom.AxisX, 0, 8, 8)
	r := geom.NewRNG(1)
	for bin := 0; bin < 8; bin++ {
		for i := 0; i < 1000; i++ {
			st.Add(particle.Particle{
				Pos:   geom.V(float64(bin)+r.Float64(), r.Range(-5, 5), r.Range(-5, 5)),
				Color: geom.V(r.Float64(), r.Float64(), r.Float64()),
				Alpha: r.Float64(), Size: r.Range(0.1, 1),
			})
		}
	}
	bufpool.Put(encodeRenderSet(st))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bufpool.Put(encodeRenderSet(st))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Len()), "ns/particle")
}
