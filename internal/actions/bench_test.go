package actions

import (
	"math"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

func benchStore(n int, span float64) *particle.ColumnStore {
	s := particle.NewColumnStore(geom.AxisX, -span, span, 16)
	r := geom.NewRNG(1)
	for i := 0; i < n; i++ {
		s.Add(particle.Particle{
			Pos:  geom.V(r.Range(-span, span), r.Range(-5, 5), r.Range(-5, 5)),
			Vel:  r.UnitVec().Scale(3),
			Rand: r.Uint64(),
		})
	}
	return s
}

func benchApply(b *testing.B, a ParticleAction) {
	b.Helper()
	s := benchStore(10000, 50)
	c := ctx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EachBatch(func(pb *particle.Batch) { ApplyToBatch(c, a, pb) })
	}
}

func BenchmarkGravityApply(b *testing.B) {
	benchApply(b, &Gravity{G: geom.V(0, -9.8, 0)})
}

func BenchmarkRandomAccelApply(b *testing.B) {
	benchApply(b, &RandomAccel{Domain: geom.SphereDomain{OuterR: 1}})
}

func BenchmarkBounceApply(b *testing.B) {
	benchApply(b, &Bounce{Plane: geom.NewPlane(geom.V(0, -5, 0), geom.V(0, 1, 0)), Elasticity: 0.5})
}

func BenchmarkMoveApply(b *testing.B) {
	benchApply(b, &Move{})
}

func BenchmarkSourceGenerate(b *testing.B) {
	s := &Source{
		Rate: 1000,
		Pos:  geom.BoxDomain{B: geom.Box(geom.V(-10, 0, -10), geom.V(10, 5, 10))},
		Vel:  geom.SphereDomain{OuterR: 2},
	}
	c := ctx()
	var dst particle.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Clear()
		s.GenerateInto(c, &dst)
	}
}

// benchCollide times the engines' entry on one retained scratch. Every
// iteration collides the store as it was built: the store is restored
// from a saved copy with the timer stopped, so ns/op does not drift
// with -benchtime as pushes separate the pairs, and one untimed call
// warms the scratch, so its growth is not billed to the first
// iterations.
func benchCollide(b *testing.B, a *CollideParticles, s *particle.ColumnStore, ghosts *particle.Batch) {
	b.Helper()
	saved := make([]particle.Batch, s.NumBins())
	for bi := range saved {
		saved[bi].AppendBatch(s.Bin(bi))
	}
	restore := func() {
		for bi := range saved {
			bin := s.Bin(bi)
			bin.Clear()
			bin.AppendBatch(&saved[bi])
		}
	}
	c := ctx()
	var sc StoreScratch
	a.ApplyWithGhosts(c, &sc, s, ghosts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore()
		b.StartTimer()
		a.ApplyWithGhosts(c, &sc, s, ghosts)
	}
}

func BenchmarkCollideSparse(b *testing.B) {
	benchCollide(b, &CollideParticles{Radius: 0.5, Elasticity: 0.8}, benchStore(10000, 200), nil)
}

func BenchmarkCollideDense(b *testing.B) {
	benchCollide(b, &CollideParticles{Radius: 2, Elasticity: 0.8}, benchStore(10000, 20), nil)
}

func BenchmarkCollideWithGhosts(b *testing.B) {
	var ghosts particle.Batch
	ghosts.AppendSlice(benchStore(1000, 50).All())
	benchCollide(b, &CollideParticles{Radius: 1, Elasticity: 0.8}, benchStore(10000, 50), &ghosts)
}

// jetsStore is one calculator's half of two head-on jets: a stream
// along +x with a ±2 cross-section, ending in the disc the jets spread
// into at x ≈ 0, and, as ghosts, the band of the other half within a
// radius of the boundary. Unlike the uniform clouds above, the occupied
// cells cluster: a thin column and a wide, thin sheet.
func jetsStore() (*particle.ColumnStore, *particle.Batch) {
	r := geom.NewRNG(3)
	s := particle.NewColumnStore(geom.AxisX, -45, 0, 8)
	var ghosts particle.Batch
	disc := func(x0, x1 float64) particle.Particle {
		a, rho := r.Range(0, 2*math.Pi), 24*math.Sqrt(r.Float64())
		out := geom.V(0, math.Cos(a), math.Sin(a))
		return particle.Particle{
			Pos:  geom.V(r.Range(x0, x1), 0, 0).Add(out.Scale(rho)),
			Vel:  out.Scale(r.Range(2, 20)).Add(geom.V(r.Range(-1, 1), 0, 0)),
			Rand: r.Uint64(),
		}
	}
	for i := 0; i < 2000; i++ {
		s.Add(particle.Particle{
			Pos:  geom.V(r.Range(-38, -1), r.Range(-2, 2), r.Range(-2, 2)),
			Vel:  geom.V(r.Range(18, 24), r.Range(-1, 1), r.Range(-1, 1)),
			Rand: r.Uint64(),
		})
		s.Add(disc(-1.5, 0))
	}
	for i := 0; i < 400; i++ {
		ghosts.Append(disc(0, 1))
	}
	return s, &ghosts
}

func BenchmarkCollideJets(b *testing.B) {
	s, ghosts := jetsStore()
	benchCollide(b, &CollideParticles{Radius: 1, Elasticity: 0.9}, s, ghosts)
}
