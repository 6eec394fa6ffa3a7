package actions

import (
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// kernelActions is the set of hot actions with columnar kernels, with
// parameters that exercise every branch (bouncing, clamping, killing).
func kernelActions() []ParticleAction {
	return []ParticleAction{
		&Gravity{G: geom.V(0, -9.8, 0)},
		&Damping{Coeff: 0.4},
		&Damping{Coeff: 20}, // f clamps to 0 at DT=0.1
		&Bounce{Plane: geom.NewPlane(geom.V(0, -2, 0), geom.V(0, 1, 0)), Elasticity: 0.5, Friction: 0.1},
		&Sink{Domain: geom.SphereDomain{OuterR: 3}, KillInside: true},
		&Sink{Domain: geom.SphereDomain{OuterR: 40}, KillInside: false},
		&SinkBelow{Axis: geom.AxisY, Threshold: 0},
		&KillOld{MaxAge: 0.5},
		&Fade{Rate: 4},
		&Move{},
	}
}

func randBatch(n int, seed uint64) *particle.Batch {
	r := geom.NewRNG(seed)
	b := &particle.Batch{}
	for i := 0; i < n; i++ {
		b.Append(particle.Particle{
			Pos:   geom.V(r.Range(-10, 10), r.Range(-6, 6), r.Range(-10, 10)),
			Vel:   r.UnitVec().Scale(8),
			Color: geom.V(r.Float64(), r.Float64(), r.Float64()),
			Age:   r.Float64(),
			Alpha: r.Float64(),
			Size:  r.Float64(),
			Rand:  r.Uint64(),
		})
	}
	return b
}

// Every columnar kernel must perform the exact float operations of its
// per-particle Apply, in index order — the bit-equality contract the
// engines rely on.
func TestKernelsMatchApply(t *testing.T) {
	for _, act := range kernelActions() {
		t.Run(act.Name(), func(t *testing.T) {
			if _, ok := act.(BatchAction); !ok {
				t.Fatalf("%s: expected a columnar kernel", act.Name())
			}
			want := randBatch(500, 77)
			got := randBatch(500, 77)
			c := ctx()
			for i := 0; i < want.Len(); i++ {
				p := want.At(i)
				act.Apply(c, &p)
				want.Set(i, p)
			}
			ApplyToBatch(ctx(), act, got)
			for i := 0; i < want.Len(); i++ {
				if want.At(i) != got.At(i) {
					t.Fatalf("particle %d diverges:\napply  %+v\nkernel %+v",
						i, want.At(i), got.At(i))
				}
			}
		})
	}
}

// Actions without a kernel run through the AoS-compat adapter, which
// must behave exactly like a hand-written Apply loop — including RNG
// consumption order for stochastic actions.
func TestApplyToBatchAdapterFallback(t *testing.T) {
	act := &RandomAccel{Domain: geom.SphereDomain{OuterR: 2}}
	if _, ok := ParticleAction(act).(BatchAction); ok {
		t.Fatal("RandomAccel unexpectedly has a kernel; pick a kernel-less action for this test")
	}
	want := randBatch(200, 5)
	got := randBatch(200, 5)
	c1, c2 := ctx(), ctx()
	for i := 0; i < want.Len(); i++ {
		p := want.At(i)
		act.Apply(c1, &p)
		want.Set(i, p)
	}
	ApplyToBatch(c2, act, got)
	for i := 0; i < want.Len(); i++ {
		if want.At(i) != got.At(i) {
			t.Fatalf("particle %d diverges", i)
		}
	}
	if c1.RNG.Save() != c2.RNG.Save() {
		t.Fatal("adapter consumed RNG differently from the Apply loop")
	}
}

// hotPipeline is a representative frame program over the hot actions.
func hotPipeline() []ParticleAction {
	return []ParticleAction{
		&Gravity{G: geom.V(0, -9.8, 0)},
		&Damping{Coeff: 0.1},
		&Bounce{Plane: geom.NewPlane(geom.V(0, -5, 0), geom.V(0, 1, 0)), Elasticity: 0.5},
		&KillOld{MaxAge: 1e9},
		&Fade{Rate: 1e-9},
		&Move{},
	}
}
