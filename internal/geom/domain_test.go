package geom

import (
	"math"
	"testing"
)

// checkDomain draws many samples from a domain and verifies they fall
// within its bounds (and, where meaningful, satisfy Within).
func checkDomain(t *testing.T, name string, d EmitDomain, checkWithin bool) {
	t.Helper()
	r := NewRNG(42)
	b := d.Bounds()
	// Tolerate tiny numeric slop at the boundary.
	eps := V(1e-9, 1e-9, 1e-9)
	grown := AABB{Min: b.Min.Sub(eps), Max: b.Max.Add(eps)}
	for i := 0; i < 2000; i++ {
		p := d.Generate(r)
		if !p.IsFinite() {
			t.Fatalf("%s: sample %d not finite: %v", name, i, p)
		}
		if !grown.Contains(p) {
			t.Fatalf("%s: sample %v outside bounds %+v", name, p, b)
		}
		if checkWithin && !d.Within(p) {
			t.Fatalf("%s: sample %v not Within its own domain", name, p)
		}
	}
}

func TestPointDomain(t *testing.T) {
	d := PointDomain{P: V(1, 2, 3)}
	checkDomain(t, "point", d, true)
	if d.Within(V(1, 2, 3.1)) {
		t.Error("Within accepts other point")
	}
}

func TestLineDomain(t *testing.T) {
	checkDomain(t, "line", LineDomain{A: V(0, 0, 0), B: V(10, 5, -3)}, true)
}

func TestBoxDomain(t *testing.T) {
	d := BoxDomain{B: Box(V(-5, 0, 2), V(5, 10, 4))}
	checkDomain(t, "box", d, true)
	if d.Within(V(0, -1, 3)) {
		t.Error("Within accepts exterior point")
	}
}

func TestSphereDomainShell(t *testing.T) {
	d := SphereDomain{Center: V(1, 1, 1), InnerR: 2, OuterR: 5}
	checkDomain(t, "sphere", d, true)
	r := NewRNG(7)
	for i := 0; i < 500; i++ {
		p := d.Generate(r)
		dist := p.Dist(d.Center)
		if dist < 2-1e-9 || dist > 5+1e-9 {
			t.Fatalf("shell sample at distance %v", dist)
		}
	}
	if d.Within(V(1, 1, 1)) {
		t.Error("center should be outside shell with InnerR=2")
	}
}

// GenerateStates must draw, for every seed, the point Generate draws
// from NewRNG(seed), bit for bit, and leave the seed where that stream
// ends.
func TestSphereGenerateStatesMatchesGenerate(t *testing.T) {
	for _, d := range []SphereDomain{
		{OuterR: 2.5},
		{Center: V(3, -1, 0.25), InnerR: 0.5, OuterR: 4},
	} {
		for _, n := range []int{0, 1, 127, 128, 129, 1000} {
			seeds := NewRNG(uint64(n) + 5)
			states := make([]uint64, n)
			for i := range states {
				states[i] = seeds.Uint64()
			}
			want := append([]uint64(nil), states...)
			pts := make([]Vec3, n)
			d.GenerateStates(states, pts)
			for i, seed := range want {
				r := NewRNG(seed)
				if p := d.Generate(r); !sameVecBits(pts[i], p) || states[i] != r.Save() {
					t.Fatalf("%+v, %d states: state %d gives %v and stream %#x, Generate %v and %#x",
						d, n, i, pts[i], states[i], p, r.Save())
				}
			}
		}
	}
}

func TestDiscDomain(t *testing.T) {
	d := DiscDomain{Center: V(0, 3, 0), Normal: V(0, 1, 0), InnerR: 1, OuterR: 4}
	checkDomain(t, "disc", d, true)
	r := NewRNG(3)
	for i := 0; i < 500; i++ {
		p := d.Generate(r)
		if math.Abs(p.Y-3) > 1e-9 {
			t.Fatalf("disc sample off-plane: %v", p)
		}
	}
}

func TestCylinderDomain(t *testing.T) {
	checkDomain(t, "cylinder", CylinderDomain{A: V(0, 0, 0), B: V(0, 10, 0), Radius: 2}, true)
}

func TestConeDomain(t *testing.T) {
	d := ConeDomain{Apex: V(0, 0, 0), Base: V(0, 4, 0), Radius: 2}
	checkDomain(t, "cone", d, true)
	// Points near the apex must have small radius.
	if d.Within(V(1.9, 0.1, 0)) {
		t.Error("wide point near apex accepted")
	}
	if !d.Within(V(1.9, 3.9, 0)) {
		t.Error("wide point near base rejected")
	}
}

func TestTriangleDomain(t *testing.T) {
	d := TriangleDomain{A: V(0, 0, 0), B: V(4, 0, 0), C: V(0, 4, 0)}
	checkDomain(t, "triangle", d, true)
	if d.Within(V(3, 3, 0)) {
		t.Error("point outside hypotenuse accepted")
	}
	if !d.Within(V(1, 1, 0)) {
		t.Error("interior point rejected")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(100)
	same := true
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// Seed on a used generator value restarts exactly the stream NewRNG
// starts, and a saved state resumes mid-stream — what lets a batch
// kernel thread every particle's private stream through one value.
func TestRNGSeedMatchesNewRNGAndSaveRoundTrips(t *testing.T) {
	var r RNG
	for _, seed := range []uint64{0, 1, 99, 1 << 63, ^uint64(0)} {
		r.Uint64() // leave state behind from the previous seed
		r.Seed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if r.Uint64() != fresh.Uint64() {
				t.Fatalf("seed %d: Seed stream diverges from NewRNG at draw %d", seed, i)
			}
		}
		if r.UnitVec() != fresh.UnitVec() || r.Range(-3, 7) != fresh.Range(-3, 7) {
			t.Fatalf("seed %d: derived draws diverge", seed)
		}
		var resumed RNG
		resumed.Seed(r.Save())
		if resumed.Save() != r.Save() {
			t.Fatalf("seed %d: Save did not round-trip", seed)
		}
		for i := 0; i < 10; i++ {
			if resumed.Uint64() != r.Uint64() {
				t.Fatalf("seed %d: resumed stream diverges at draw %d", seed, i)
			}
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGRangeAndIntn(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range out of range: %v", v)
		}
		n := r.Intn(13)
		if n < 0 || n >= 13 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(12)
	const n = 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("variance = %v", variance)
	}
}

func TestRNGUnitVec(t *testing.T) {
	r := NewRNG(8)
	var mean Vec3
	for i := 0; i < 20000; i++ {
		v := r.UnitVec()
		if math.Abs(v.Len()-1) > 1e-9 {
			t.Fatalf("unit vec length %v", v.Len())
		}
		mean = mean.Add(v)
	}
	if mean.Scale(1.0/20000).Len() > 0.02 {
		t.Errorf("unit vectors not isotropic: mean %v", mean.Scale(1.0/20000))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}
