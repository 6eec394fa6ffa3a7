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

// sincosSpecialValues are the inputs where the port and math.Sincos
// could part ways: the cold path's edges (±0, ±Inf, NaN, 2^29 ± 1 ulp
// and beyond), the octant boundaries kπ/4 ± 1 ulp, where the reduction
// picks one octant or the next, and subnormals.
func sincosSpecialValues() []float64 {
	const threshold = 1 << 29
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(threshold, 0), threshold, math.Nextafter(threshold, math.Inf(1)), 1 << 40,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.Float64frombits(0x0000000100000000), math.Nextafter(2*math.Pi, 0), 2 * math.Pi}
	for k := 0; k <= 16; k++ {
		x := float64(k) * math.Pi / 4
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, -x)
	}
	return xs
}

// requireSincosMatchesMath fails unless sincos(x) and math.Sincos(x)
// return the same bits, NaN payloads included.
func requireSincosMatchesMath(t *testing.T, x float64) {
	t.Helper()
	sin, cos := sincos(x)
	wantSin, wantCos := math.Sincos(x)
	if !sameBits(sin, wantSin) || !sameBits(cos, wantCos) {
		t.Fatalf("sincos(%v [%#x]) = (%b, %b), math.Sincos = (%b, %b)",
			x, math.Float64bits(x), sin, cos, wantSin, wantCos)
	}
}

// TestSincosMatchesMath holds the engine's sincos to math.Sincos bit
// for bit: over the special values, and over 10^6 inputs each from the
// engine's angles [0, 2π), ±1e3 (every octant many times over) and
// arbitrary bit patterns (mostly huge or tiny magnitudes, and the cold
// path).
func TestSincosMatchesMath(t *testing.T) {
	for _, x := range sincosSpecialValues() {
		requireSincosMatchesMath(t, x)
	}
	r := NewRNG(17)
	for i := 0; i < sincosDraws; i++ {
		requireSincosMatchesMath(t, r.Range(0, 2*math.Pi))
		requireSincosMatchesMath(t, r.Range(-1e3, 1e3))
		requireSincosMatchesMath(t, math.Float64frombits(r.Uint64()))
	}
}

// FuzzSincosMatchesMath holds sincos to math.Sincos over arbitrary
// inputs.
func FuzzSincosMatchesMath(f *testing.F) {
	for _, x := range sincosSpecialValues() {
		f.Add(x)
	}
	f.Fuzz(requireSincosMatchesMath)
}
