package actions

import (
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// BatchAction is a ParticleAction with a columnar kernel: ApplyBatch
// runs the action over a whole particle.Batch, streaming the columns it
// touches instead of paying a virtual call and a record copy per
// particle. A kernel must perform the exact per-particle float
// operations of Apply, in index order, so the two paths stay
// bit-identical — the engines assert this across the full schedule ×
// balancing matrix.
type BatchAction interface {
	ParticleAction
	ApplyBatch(ctx *Context, b *particle.Batch)
}

// ApplyToBatch runs a over every particle of b: through the columnar
// kernel when a implements BatchAction, otherwise through the record
// adapter, which materializes each particle, applies the per-particle
// Apply, and scatters it back. The adapter's one Particle record is
// hoisted out of the loop (it escapes through the interface call), so a
// kernel-less action costs one heap object per call — per bin pass —
// not one per particle. Every action a benchmark workload runs has a
// kernel; the adapter serves the rest (Vortex, OrbitPoint, Jet, Grow,
// TargetColor, …) and foreign ParticleActions.
func ApplyToBatch(ctx *Context, a ParticleAction, b *particle.Batch) {
	if ba, ok := a.(BatchAction); ok {
		ba.ApplyBatch(ctx, b)
		return
	}
	var p particle.Particle
	n := b.Len()
	for i := 0; i < n; i++ {
		p = b.At(i)
		a.Apply(ctx, &p)
		b.Set(i, p)
	}
}

// ---------------------------------------------------------------------
// Columnar kernels for the hot actions. Each loop body is the matching
// Apply body verbatim, expressed over columns.
// ---------------------------------------------------------------------

// ApplyBatch implements BatchAction. The acceleration G·DT is loop
// invariant; adding the hoisted value per particle performs the same
// float operations as Apply.
func (a *Gravity) ApplyBatch(ctx *Context, b *particle.Batch) {
	g := a.G.Scale(ctx.DT)
	for i := range b.Vel {
		b.Vel[i] = b.Vel[i].Add(g)
	}
}

// randomAccelChunk is how many particles a sphere-domain RandomAccel
// draws per geom.SphereDomain.GenerateStates call: small enough that
// the chunk's points stay in L1 between its passes, and a fixed-size
// array on the stack, so the kernel allocates nothing.
const randomAccelChunk = 128

// ApplyBatch implements BatchAction. A sphere domain — snow's and the
// fountain's — draws a chunk of particles at a time through
// GenerateStates, the same draws and float operations as Generate.
// Any other domain re-seeds the context's scratch stream from each
// particle's saved stream: Apply's draws and float operations, without
// its per-particle NewRNG, and with nothing allocated.
func (a *RandomAccel) ApplyBatch(ctx *Context, b *particle.Batch) {
	if d, ok := a.Domain.(geom.SphereDomain); ok {
		var pts [randomAccelChunk]geom.Vec3
		for lo := 0; lo < len(b.Vel); lo += randomAccelChunk {
			vel := b.Vel[lo:min(lo+randomAccelChunk, len(b.Vel))]
			d.GenerateStates(b.Rand[lo:lo+len(vel)], pts[:])
			for i := range vel {
				vel[i] = vel[i].Add(pts[i].Scale(ctx.DT))
			}
		}
		return
	}
	r := &ctx.scratch
	for i := range b.Vel {
		r.Seed(b.Rand[i])
		b.Vel[i] = b.Vel[i].Add(a.Domain.Generate(r).Scale(ctx.DT))
		b.Rand[i] = r.Save()
	}
}

// ApplyBatch implements BatchAction.
func (a *Damping) ApplyBatch(ctx *Context, b *particle.Batch) {
	f := 1 - a.Coeff*ctx.DT
	if f < 0 {
		f = 0
	}
	for i := range b.Vel {
		b.Vel[i] = b.Vel[i].Scale(f)
	}
}

// ApplyBatch implements BatchAction.
func (a *Bounce) ApplyBatch(ctx *Context, b *particle.Batch) {
	n := a.Plane.Normal
	for i := range b.Vel {
		d := a.Plane.SignedDist(b.Pos[i])
		vn := b.Vel[i].Dot(n)
		if d < 0 || vn >= 0 || d+vn*ctx.DT > 0 {
			continue
		}
		normal := n.Scale(vn)
		tangent := b.Vel[i].Sub(normal)
		b.Vel[i] = tangent.Scale(1 - a.Friction).Sub(normal.Scale(a.Elasticity))
	}
}

// ApplyBatch implements BatchAction.
func (a *Sink) ApplyBatch(_ *Context, b *particle.Batch) {
	for i := range b.Pos {
		if a.Domain.Within(b.Pos[i]) == a.KillInside {
			b.Dead[i] = true
		}
	}
}

// ApplyBatch implements BatchAction.
func (a *SinkBelow) ApplyBatch(_ *Context, b *particle.Batch) {
	for i := range b.Pos {
		if b.Pos[i].Component(a.Axis) < a.Threshold {
			b.Dead[i] = true
		}
	}
}

// ApplyBatch implements BatchAction.
func (a *KillOld) ApplyBatch(_ *Context, b *particle.Batch) {
	for i := range b.Age {
		if b.Age[i] > a.MaxAge {
			b.Dead[i] = true
		}
	}
}

// ApplyBatch implements BatchAction. Speed·DT is loop invariant; the
// falloff division stays per particle, as in Apply.
func (a *Explosion) ApplyBatch(ctx *Context, b *particle.Batch) {
	base := a.Speed * ctx.DT
	for i := range b.Vel {
		d := b.Pos[i].Sub(a.Center)
		scale := base
		if a.Falloff > 0 {
			scale /= 1 + a.Falloff*d.Len()
		}
		b.Vel[i] = b.Vel[i].Add(d.Norm().Scale(scale))
	}
}

// ApplyBatch implements BatchAction.
func (a *Fade) ApplyBatch(ctx *Context, b *particle.Batch) {
	step := a.Rate * ctx.DT
	for i := range b.Alpha {
		b.Alpha[i] -= step
		if b.Alpha[i] <= 0 {
			b.Alpha[i] = 0
			b.Dead[i] = true
		}
	}
}

// ApplyBatch implements BatchAction.
func (a *Move) ApplyBatch(ctx *Context, b *particle.Batch) {
	for i := range b.Pos {
		b.Pos[i] = b.Pos[i].Add(b.Vel[i].Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}
