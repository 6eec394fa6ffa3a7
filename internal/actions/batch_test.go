package actions

import (
	"math"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// explosionCenter is where TestKernelsMatchApply pins particle 0 for
// the Explosion rows: a particle exactly at the center (zero offset).
var explosionCenter = geom.V(1, -2, 3)

// kernelActions is the set of hot actions with columnar kernels, with
// parameters that exercise every branch (bouncing, clamping, killing,
// each RandomAccel domain's draw pattern, explosion falloff on and off).
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
		&RandomAccel{Domain: geom.SphereDomain{InnerR: 0.5, OuterR: 2}},
		&RandomAccel{Domain: geom.BoxDomain{B: geom.Box(geom.V(-1, -2, -3), geom.V(3, 2, 1))}},
		&RandomAccel{Domain: geom.PointDomain{P: geom.V(0.5, 0, -0.25)}}, // draws nothing
		&Explosion{Center: explosionCenter, Speed: 12},
		&Explosion{Center: explosionCenter, Speed: 12, Falloff: 0.7},
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

// requireMatchesApplyLoop runs act over want with a hand-written Apply
// loop and over got (an identical copy) with ApplyToBatch, requires
// every column to come out bit-equal, and returns the two contexts so
// the caller can check what each path drew from the system stream.
func requireMatchesApplyLoop(t *testing.T, act ParticleAction, want, got *particle.Batch) (loop, batch *Context) {
	t.Helper()
	loop, batch = ctx(), ctx()
	for i := 0; i < want.Len(); i++ {
		p := want.At(i)
		act.Apply(loop, &p)
		want.Set(i, p)
	}
	ApplyToBatch(batch, act, got)
	for i := 0; i < want.Len(); i++ {
		if want.At(i) != got.At(i) {
			t.Fatalf("%T: particle %d diverges:\napply loop   %+v\nApplyToBatch %+v",
				act, i, want.At(i), got.At(i))
		}
	}
	return loop, batch
}

// Every columnar kernel must perform the exact float operations of its
// per-particle Apply, in index order — the bit-equality contract the
// engines rely on. All columns are compared, so a stochastic kernel
// must also leave each particle's saved stream (Rand) where Apply does,
// and none may draw from the system stream.
func TestKernelsMatchApply(t *testing.T) {
	for _, act := range kernelActions() {
		t.Run(act.Name(), func(t *testing.T) {
			if _, ok := act.(BatchAction); !ok {
				t.Fatalf("%s: expected a columnar kernel", act.Name())
			}
			want := randBatch(500, 77)
			got := randBatch(500, 77)
			if e, ok := act.(*Explosion); ok {
				want.Pos[0], got.Pos[0] = e.Center, e.Center
			}
			c, ck := requireMatchesApplyLoop(t, act, want, got)
			if system := ctx().RNG.Save(); c.RNG.Save() != system || ck.RNG.Save() != system {
				t.Fatal("a per-particle action drew from the system stream")
			}
		})
	}
}

// A sphere-domain RandomAccel draws in chunks of randomAccelChunk
// particles, three passes per chunk. Its Vel and Rand columns must
// still come out of ApplyBatch bit for bit as from Apply per particle:
// at every chunk edge (0, 1, one short of a chunk, one chunk, one over,
// several chunks and a tail), for full spheres and shells, centred on
// the origin or not, and at both of the engines' time steps.
func TestRandomAccelSphereBatchMatchesApply(t *testing.T) {
	bits := func(v geom.Vec3) [3]uint64 {
		return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
	}
	for _, d := range []geom.SphereDomain{
		{OuterR: 1.2},
		{InnerR: 0.5, OuterR: 2},
		{Center: geom.V(0.3, -2, 1), InnerR: 0.5, OuterR: 0.8},
	} {
		act := &RandomAccel{Domain: d}
		for _, dt := range []float64{0.1, 1.0 / 30} {
			for _, n := range []int{0, 1, randomAccelChunk - 1, randomAccelChunk, randomAccelChunk + 1, 1000} {
				want, got := randBatch(n, uint64(n)+21), randBatch(n, uint64(n)+21)
				c := &Context{RNG: geom.NewRNG(1), DT: dt}
				for i := 0; i < n; i++ {
					p := want.At(i)
					act.Apply(c, &p)
					want.Set(i, p)
				}
				act.ApplyBatch(c, got)
				for i := 0; i < n; i++ {
					if bits(got.Vel[i]) != bits(want.Vel[i]) || got.Rand[i] != want.Rand[i] {
						t.Fatalf("%+v, DT %v, %d particles: particle %d has Vel %v, Rand %#x; Apply gives %v, %#x",
							d, dt, n, i, got.Vel[i], got.Rand[i], want.Vel[i], want.Rand[i])
					}
				}
			}
		}
	}
}

// systemJitter is a kernel-less action that draws from the system
// stream, so the adapter's RNG consumption order is observable.
type systemJitter struct{ Vortex }

func (a *systemJitter) Apply(ctx *Context, p *particle.Particle) {
	a.Vortex.Apply(ctx, p)
	p.Vel = p.Vel.Add(ctx.RNG.UnitVec().Scale(ctx.DT))
}

// Actions without a kernel run through the record adapter, which must
// behave exactly like a hand-written Apply loop — including RNG
// consumption order for actions that draw from the system stream.
func TestApplyToBatchAdapterFallback(t *testing.T) {
	vortex := Vortex{Center: geom.V(1, 0, -1), Axis: geom.V(0, 2, 0), Strength: 3}
	for _, act := range []ParticleAction{&vortex, &systemJitter{vortex}} {
		if _, ok := act.(BatchAction); ok {
			t.Fatalf("%T unexpectedly has a kernel; pick a kernel-less action for this test", act)
		}
		c1, c2 := requireMatchesApplyLoop(t, act, randBatch(200, 5), randBatch(200, 5))
		if c1.RNG.Save() != c2.RNG.Save() {
			t.Fatalf("%T: adapter consumed RNG differently from the Apply loop", act)
		}
	}
}

// The allocation budget per ApplyToBatch call — per bin pass, whatever
// the particle count: the adapter's one hoisted record (it escapes
// through the interface call), and nothing for a columnar kernel.
func TestApplyToBatchAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		act ParticleAction
		max float64
	}{
		{&Vortex{Axis: geom.V(0, 1, 0), Strength: 3}, 1},
		{&RandomAccel{Domain: geom.SphereDomain{OuterR: 2}}, 0},
		{&Explosion{Center: explosionCenter, Speed: 12, Falloff: 0.7}, 0},
		{&Gravity{G: geom.V(0, -9.8, 0)}, 0},
		{&Damping{Coeff: 0.4}, 0},
		{&Bounce{Plane: geom.NewPlane(geom.V(0, -2, 0), geom.V(0, 1, 0)), Elasticity: 0.5}, 0},
		{&Sink{Domain: geom.SphereDomain{OuterR: 3}, KillInside: true}, 0},
		{&SinkBelow{Axis: geom.AxisY, Threshold: 0}, 0},
		{&KillOld{MaxAge: 0.5}, 0},
		{&Fade{Rate: 4}, 0},
		{&Move{}, 0},
	} {
		b := randBatch(1000, 9)
		c := ctx()
		if got := testing.AllocsPerRun(20, func() { ApplyToBatch(c, tc.act, b) }); got > tc.max {
			t.Errorf("%s: %v allocations per 1000-particle ApplyToBatch, want at most %v",
				tc.act.Name(), got, tc.max)
		}
	}
}
