package geom

import (
	"math"
	"testing"
)

// The random directions take an angle's sine and cosine from one
// math.Sincos. These tests hold them to the two-call spelling they
// replaced, bit for bit: every particle a SphereDomain or DiscDomain
// emits depends on it.

// unitVecSinCos is RNG.UnitVec as it was spelled with separate
// math.Cos and math.Sin calls: the oracle.
func unitVecSinCos(r *RNG) Vec3 {
	z := r.Range(-1, 1)
	t := r.Range(0, 2*math.Pi)
	s := math.Sqrt(1 - z*z)
	return Vec3{s * math.Cos(t), s * math.Sin(t), z}
}

// discGenerateSinCos is DiscDomain.Generate with separate math.Cos and
// math.Sin calls: the oracle.
func discGenerateSinCos(d DiscDomain, r *RNG) Vec3 {
	u, v := d.basis()
	rad := math.Sqrt(r.Range(d.InnerR*d.InnerR, d.OuterR*d.OuterR))
	t := r.Range(0, 2*math.Pi)
	return d.Center.Add(u.Scale(rad * math.Cos(t))).Add(v.Scale(rad * math.Sin(t)))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVecBits(a, b Vec3) bool {
	return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z)
}

const sincosDraws = 1_000_000

// TestSincosMatchesSinCosSpecialValues checks the primitive the random
// directions rely on at the angles where a reduction or a special-case
// ladder could part ways: signed zeros, the octant boundaries kπ/4, the
// last float below 2π, arguments large enough for the Payne–Hanek path
// (trigReduce, from 2^29 up), and the non-finite inputs. A NaN result is
// compared as NaN only: math.Sin returns its NaN argument, math.Sincos a
// fresh one, and no engine angle is ever NaN (Range over a finite
// interval is finite).
func TestSincosMatchesSinCosSpecialValues(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), math.Nextafter(2*math.Pi, 0), 1 << 29, 1 << 40, -(1 << 40),
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for k := 0; k <= 8; k++ {
		xs = append(xs, float64(k)*math.Pi/4, -float64(k)*math.Pi/4)
	}
	for _, x := range xs {
		sin, cos := math.Sincos(x)
		wantSin, wantCos := math.Sin(x), math.Cos(x)
		if math.IsNaN(wantSin) || math.IsNaN(wantCos) {
			if !math.IsNaN(sin) || !math.IsNaN(cos) {
				t.Errorf("Sincos(%v) = (%v, %v), want NaNs", x, sin, cos)
			}
			continue
		}
		if !sameBits(sin, wantSin) || !sameBits(cos, wantCos) {
			t.Errorf("Sincos(%v) = (%b, %b), want (%b, %b)", x, sin, cos, wantSin, wantCos)
		}
	}
	r := NewRNG(3)
	for i := 0; i < sincosDraws; i++ {
		x := r.Range(-1e6, 1e6)
		sin, cos := math.Sincos(x)
		if !sameBits(sin, math.Sin(x)) || !sameBits(cos, math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), want (%v, %v)", x, sin, cos, math.Sin(x), math.Cos(x))
		}
	}
}

func TestUnitVecMatchesSinCos(t *testing.T) {
	got, want := NewRNG(11), NewRNG(11)
	for i := 0; i < sincosDraws; i++ {
		if g, w := got.UnitVec(), unitVecSinCos(want); !sameVecBits(g, w) {
			t.Fatalf("draw %d: UnitVec = %v, want %v", i, g, w)
		}
	}
}

func TestDiscGenerateMatchesSinCos(t *testing.T) {
	d := DiscDomain{Center: V(1, -2, 3), Normal: V(0.3, 1, -0.2), InnerR: 0.5, OuterR: 4}
	got, want := NewRNG(13), NewRNG(13)
	for i := 0; i < sincosDraws; i++ {
		if g, w := d.Generate(got), discGenerateSinCos(d, want); !sameVecBits(g, w) {
			t.Fatalf("draw %d: Generate = %v, want %v", i, g, w)
		}
	}
}
