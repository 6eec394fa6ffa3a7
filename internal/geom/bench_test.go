package geom

import (
	"math"
	"testing"
)

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGUnitVec(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.UnitVec()
	}
}

func BenchmarkBoxDomainGenerate(b *testing.B) {
	d := BoxDomain{B: Box(V(-10, -10, -10), V(10, 10, 10))}
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		d.Generate(r)
	}
}

func BenchmarkSphereDomainGenerate(b *testing.B) {
	d := SphereDomain{InnerR: 1, OuterR: 5}
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		d.Generate(r)
	}
}

func BenchmarkConeDomainGenerate(b *testing.B) {
	d := ConeDomain{Apex: V(0, 0, 0), Base: V(0, 5, 0), Radius: 2}
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		d.Generate(r)
	}
}

func BenchmarkVecOps(b *testing.B) {
	v, w := V(1, 2, 3), V(4, 5, 6)
	var acc Vec3
	for i := 0; i < b.N; i++ {
		acc = acc.Add(v.Cross(w).Scale(1e-9))
	}
	_ = acc
}

// BenchmarkSincos times math.Sincos and the engine's port over the same
// 8 192 fixed random angles in [0, 2π), the range every engine angle is
// drawn from: random octants, so math.Sincos's octant branches
// mispredict as they do in the draws.
func BenchmarkSincos(b *testing.B) {
	r := NewRNG(1)
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = r.Range(0, 2*math.Pi)
	}
	b.Run("math", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			s, c := math.Sincos(xs[i&(len(xs)-1)])
			acc += s + c
		}
		sinkFloat = acc
	})
	b.Run("port", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			s, c := sincos(xs[i&(len(xs)-1)])
			acc += s + c
		}
		sinkFloat = acc
	})
}

var sinkFloat float64
