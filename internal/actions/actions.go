// Package actions is the action library of the validated particle
// system API — a from-scratch rewrite of the McAllister Particle System
// API's action set [9] organized by the model's taxonomy (paper §3.1.5):
//
//   - actions that CREATE particles run on the manager, which scatters
//     the new particles to the calculators by domain;
//   - actions that change PROPERTIES only (gravity, bounce, kill, color,
//     …) run on calculators with no communication at all;
//   - actions that change POSITIONING (move, clamp) require the
//     out-of-domain check at the end of the frame;
//   - STORE actions (inter-particle collision, velocity matching) need
//     neighborhood queries and are the reason the model preserves data
//     locality.
package actions

import (
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// Kind classifies an action by its communication requirements (§3.1.5).
type Kind int

// The action kinds of the model's taxonomy.
const (
	KindCreate   Kind = iota // creates particles (manager-side)
	KindProperty             // mutates particles without moving them
	KindPosition             // may change particle positions
	KindStore                // needs access to the whole local store
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindProperty:
		return "property"
	case KindPosition:
		return "position"
	default:
		return "store"
	}
}

// Context carries per-frame state into actions. Actions mutate it, so a
// Context serves one goroutine at a time.
type Context struct {
	RNG *geom.RNG // the particle system's deterministic stream
	DT  float64   // frame time step, seconds

	// scratch is the kernels' re-seedable stream for particles' private
	// random state: it lives in the Context so that passing it through an
	// interface allocates nothing.
	scratch geom.RNG
}

// Action is anything that can appear in a particle system's per-frame
// action list (the body of the paper's Algorithm 1).
type Action interface {
	// Name identifies the action in traces and cost tables.
	Name() string
	// Kind places the action in the model's taxonomy.
	Kind() Kind
	// Cost is the abstract work units one application to one particle
	// costs; the virtual-time engine charges Cost × particles per frame.
	Cost() float64
}

// ParticleAction is an action applied independently to every particle —
// the property and position actions of the taxonomy.
type ParticleAction interface {
	Action
	Apply(ctx *Context, p *particle.Particle)
}

// CreateAction generates new particles (manager-side), appending them
// to a batch the caller owns.
type CreateAction interface {
	Action
	GenerateInto(ctx *Context, dst *particle.Batch)
}

// StoreAction operates on the whole local store (inter-particle
// effects): it reads and writes the store's Pos and Vel columns in
// place, indexing particles in store order, with sc as its working
// memory. It returns the work units it performed, since its cost
// depends on neighborhood density rather than a flat per-particle rate.
type StoreAction interface {
	Action
	ApplyStore(ctx *Context, sc *StoreScratch, st *particle.ColumnStore) float64
}

// ---------------------------------------------------------------------
// Create actions
// ---------------------------------------------------------------------

// Source creates Rate particles per frame, drawing positions,
// velocities and orientations from emission domains (the pSource /
// pVelocityD / pColorD calls of the original API).
type Source struct {
	Rate      int             // particles created per frame
	Pos       geom.EmitDomain // initial position distribution
	Vel       geom.EmitDomain // initial velocity distribution
	UpVec     geom.Vec3       // initial orientation
	Color     geom.EmitDomain // initial color distribution (RGB as a point in color space)
	Size      float64
	Alpha     float64
	AgeJitter float64 // initial age is uniform in [0, AgeJitter)
}

// Name implements Action.
func (s *Source) Name() string { return "source" }

// Kind implements Action.
func (s *Source) Kind() Kind { return KindCreate }

// Cost implements Action: creation is charged per created particle.
func (s *Source) Cost() float64 { return 2.0 }

// GenerateInto implements CreateAction: it appends Rate particles to
// dst, drawing each one's position, velocity, color, age and private
// stream from the system stream in that order.
func (s *Source) GenerateInto(ctx *Context, dst *particle.Batch) {
	first := dst.Len()
	dst.Grow(s.Rate)
	for i := first; i < dst.Len(); i++ {
		dst.Pos[i] = s.Pos.Generate(ctx.RNG)
		if s.Vel != nil {
			dst.Vel[i] = s.Vel.Generate(ctx.RNG)
		}
		if s.Color != nil {
			dst.Color[i] = s.Color.Generate(ctx.RNG)
		} else {
			dst.Color[i] = geom.V(1, 1, 1)
		}
		dst.Up[i] = s.UpVec
		dst.Size[i] = s.Size
		dst.Alpha[i] = s.Alpha
		if s.AgeJitter > 0 {
			dst.Age[i] = ctx.RNG.Range(0, s.AgeJitter)
		}
		// Every particle carries a private random stream so stochastic
		// actions stay deterministic no matter which calculator ends up
		// applying them (sequential ≡ parallel).
		dst.Rand[i] = ctx.RNG.Uint64()
	}
}

// Generate returns one GenerateInto call's particles as records, in a
// fresh slice.
func (s *Source) Generate(ctx *Context) []particle.Particle {
	var b particle.Batch
	s.GenerateInto(ctx, &b)
	return b.All()
}

// ---------------------------------------------------------------------
// Property actions (no repositioning, no communication — §3.2.2)
// ---------------------------------------------------------------------

// Gravity applies a constant acceleration to the velocity.
type Gravity struct{ G geom.Vec3 }

// Name implements Action.
func (a *Gravity) Name() string { return "gravity" }

// Kind implements Action.
func (a *Gravity) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Gravity) Cost() float64 { return 1.0 }

// Apply implements ParticleAction.
func (a *Gravity) Apply(ctx *Context, p *particle.Particle) {
	p.Vel = p.Vel.Add(a.G.Scale(ctx.DT))
}

// RandomAccel perturbs the velocity with a random acceleration drawn
// from a domain — the snow experiment's per-frame "random acceleration"
// (§5.1).
type RandomAccel struct{ Domain geom.EmitDomain }

// Name implements Action.
func (a *RandomAccel) Name() string { return "random-accel" }

// Kind implements Action.
func (a *RandomAccel) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *RandomAccel) Cost() float64 { return 1.5 }

// Apply implements ParticleAction. The perturbation is drawn from the
// particle's private stream, not the system stream: the result must not
// depend on which process holds the particle or in what order the store
// iterates (§3.1.3's requirement that systems evolve identically in all
// processes).
func (a *RandomAccel) Apply(ctx *Context, p *particle.Particle) {
	r := geom.NewRNG(p.Rand)
	p.Vel = p.Vel.Add(a.Domain.Generate(r).Scale(ctx.DT))
	p.Rand = r.Save()
}

// Damping scales the velocity toward zero (viscous drag).
type Damping struct{ Coeff float64 }

// Name implements Action.
func (a *Damping) Name() string { return "damping" }

// Kind implements Action.
func (a *Damping) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Damping) Cost() float64 { return 0.5 }

// Apply implements ParticleAction.
func (a *Damping) Apply(ctx *Context, p *particle.Particle) {
	f := 1 - a.Coeff*ctx.DT
	if f < 0 {
		f = 0
	}
	p.Vel = p.Vel.Scale(f)
}

// Bounce reflects the velocity of particles that would cross a plane in
// this frame — collision with an external object (§3.2.2: bounce does
// not change positioning). Elasticity scales the normal component,
// Friction the tangential one.
type Bounce struct {
	Plane      geom.Plane
	Elasticity float64
	Friction   float64
}

// Name implements Action.
func (a *Bounce) Name() string { return "bounce" }

// Kind implements Action.
func (a *Bounce) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Bounce) Cost() float64 { return 1.5 }

// Apply implements ParticleAction.
func (a *Bounce) Apply(ctx *Context, p *particle.Particle) {
	// Only particles heading into the plane from the positive side and
	// close enough to cross this frame bounce.
	d := a.Plane.SignedDist(p.Pos)
	vn := p.Vel.Dot(a.Plane.Normal)
	if d < 0 || vn >= 0 || d+vn*ctx.DT > 0 {
		return
	}
	n := a.Plane.Normal
	normal := n.Scale(vn)
	tangent := p.Vel.Sub(normal)
	p.Vel = tangent.Scale(1 - a.Friction).Sub(normal.Scale(a.Elasticity))
}

// Sink kills particles inside (or outside) an emission domain.
type Sink struct {
	Domain     geom.EmitDomain
	KillInside bool // true: dying inside; false: dying outside
}

// Name implements Action.
func (a *Sink) Name() string { return "sink" }

// Kind implements Action.
func (a *Sink) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Sink) Cost() float64 { return 1.0 }

// Apply implements ParticleAction.
func (a *Sink) Apply(_ *Context, p *particle.Particle) {
	if a.Domain.Within(p.Pos) == a.KillInside {
		p.Dead = true
	}
}

// SinkBelow kills particles whose coordinate along an axis drops under a
// threshold — "Remove particles under the position (x, y, z)" in the
// paper's Algorithm 1.
type SinkBelow struct {
	Axis      geom.Axis
	Threshold float64
}

// Name implements Action.
func (a *SinkBelow) Name() string { return "sink-below" }

// Kind implements Action.
func (a *SinkBelow) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *SinkBelow) Cost() float64 { return 0.5 }

// Apply implements ParticleAction.
func (a *SinkBelow) Apply(_ *Context, p *particle.Particle) {
	if p.Pos.Component(a.Axis) < a.Threshold {
		p.Dead = true
	}
}

// KillOld kills particles older than MaxAge — "eliminate old particles"
// in both experiments (§5.1, §5.2).
type KillOld struct{ MaxAge float64 }

// Name implements Action.
func (a *KillOld) Name() string { return "kill-old" }

// Kind implements Action.
func (a *KillOld) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *KillOld) Cost() float64 { return 0.5 }

// Apply implements ParticleAction.
func (a *KillOld) Apply(_ *Context, p *particle.Particle) {
	if p.Age > a.MaxAge {
		p.Dead = true
	}
}

// OrbitPoint accelerates particles toward a point with an inverse-square
// falloff clamped at Epsilon.
type OrbitPoint struct {
	Center   geom.Vec3
	Strength float64
	Epsilon  float64
}

// Name implements Action.
func (a *OrbitPoint) Name() string { return "orbit-point" }

// Kind implements Action.
func (a *OrbitPoint) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *OrbitPoint) Cost() float64 { return 1.5 }

// Apply implements ParticleAction.
func (a *OrbitPoint) Apply(ctx *Context, p *particle.Particle) {
	d := a.Center.Sub(p.Pos)
	r2 := d.Len2()
	if r2 < a.Epsilon {
		r2 = a.Epsilon
	}
	p.Vel = p.Vel.Add(d.Norm().Scale(a.Strength * ctx.DT / r2))
}

// Vortex swirls particles around an axis line.
type Vortex struct {
	Center   geom.Vec3
	Axis     geom.Vec3
	Strength float64
}

// Name implements Action.
func (a *Vortex) Name() string { return "vortex" }

// Kind implements Action.
func (a *Vortex) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Vortex) Cost() float64 { return 2.0 }

// Apply implements ParticleAction.
func (a *Vortex) Apply(ctx *Context, p *particle.Particle) {
	axis := a.Axis.Norm()
	rel := p.Pos.Sub(a.Center)
	radial := rel.Sub(axis.Scale(rel.Dot(axis)))
	tangent := axis.Cross(radial)
	p.Vel = p.Vel.Add(tangent.Scale(a.Strength * ctx.DT))
}

// Explosion pushes particles away from a center with an exponential
// falloff by distance.
type Explosion struct {
	Center  geom.Vec3
	Speed   float64
	Falloff float64
}

// Name implements Action.
func (a *Explosion) Name() string { return "explosion" }

// Kind implements Action.
func (a *Explosion) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Explosion) Cost() float64 { return 1.5 }

// Apply implements ParticleAction.
func (a *Explosion) Apply(ctx *Context, p *particle.Particle) {
	d := p.Pos.Sub(a.Center)
	r := d.Len()
	scale := a.Speed * ctx.DT
	if a.Falloff > 0 {
		scale /= 1 + a.Falloff*r
	}
	p.Vel = p.Vel.Add(d.Norm().Scale(scale))
}

// Jet accelerates particles inside a region by a fixed acceleration —
// the nozzle wind of the original API.
type Jet struct {
	Region geom.EmitDomain
	Accel  geom.Vec3
}

// Name implements Action.
func (a *Jet) Name() string { return "jet" }

// Kind implements Action.
func (a *Jet) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Jet) Cost() float64 { return 1.0 }

// Apply implements ParticleAction.
func (a *Jet) Apply(ctx *Context, p *particle.Particle) {
	if a.Region.Within(p.Pos) {
		p.Vel = p.Vel.Add(a.Accel.Scale(ctx.DT))
	}
}

// TargetColor blends particle colors toward a target at Rate per second.
type TargetColor struct {
	Color geom.Vec3
	Rate  float64
}

// Name implements Action.
func (a *TargetColor) Name() string { return "target-color" }

// Kind implements Action.
func (a *TargetColor) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *TargetColor) Cost() float64 { return 0.5 }

// Apply implements ParticleAction.
func (a *TargetColor) Apply(ctx *Context, p *particle.Particle) {
	t := a.Rate * ctx.DT
	if t > 1 {
		t = 1
	}
	p.Color = p.Color.Lerp(a.Color, t)
}

// Fade reduces alpha at Rate per second; fully transparent particles die.
type Fade struct{ Rate float64 }

// Name implements Action.
func (a *Fade) Name() string { return "fade" }

// Kind implements Action.
func (a *Fade) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Fade) Cost() float64 { return 0.5 }

// Apply implements ParticleAction.
func (a *Fade) Apply(ctx *Context, p *particle.Particle) {
	p.Alpha -= a.Rate * ctx.DT
	if p.Alpha <= 0 {
		p.Alpha = 0
		p.Dead = true
	}
}

// Grow changes particle size at Rate per second (negative shrinks;
// size clamps at zero without killing).
type Grow struct{ Rate float64 }

// Name implements Action.
func (a *Grow) Name() string { return "grow" }

// Kind implements Action.
func (a *Grow) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *Grow) Cost() float64 { return 0.5 }

// Apply implements ParticleAction.
func (a *Grow) Apply(ctx *Context, p *particle.Particle) {
	p.Size += a.Rate * ctx.DT
	if p.Size < 0 {
		p.Size = 0
	}
}

// OrientToVelocity sets the orientation to the normalized velocity,
// like the streak rendering mode of the original API.
type OrientToVelocity struct{}

// Name implements Action.
func (a *OrientToVelocity) Name() string { return "orient-to-velocity" }

// Kind implements Action.
func (a *OrientToVelocity) Kind() Kind { return KindProperty }

// Cost implements Action.
func (a *OrientToVelocity) Cost() float64 { return 0.5 }

// Apply implements ParticleAction.
func (a *OrientToVelocity) Apply(_ *Context, p *particle.Particle) {
	if v := p.Vel.Norm(); v != geom.V(0, 0, 0) {
		p.Up = v
	}
}

// ---------------------------------------------------------------------
// Position actions (§3.2.3 — require the out-of-domain check)
// ---------------------------------------------------------------------

// Move integrates positions by one time step and advances age — the
// "Move particles" line of Algorithm 1. It is the canonical position
// action: after it runs, particles may have left their domain.
type Move struct{}

// Name implements Action.
func (a *Move) Name() string { return "move" }

// Kind implements Action.
func (a *Move) Kind() Kind { return KindPosition }

// Cost implements Action.
func (a *Move) Cost() float64 { return 1.0 }

// Apply implements ParticleAction.
func (a *Move) Apply(ctx *Context, p *particle.Particle) {
	p.Pos = p.Pos.Add(p.Vel.Scale(ctx.DT))
	p.Age += ctx.DT
}

// RestrictToBox clamps escaped particles back into a box and cancels the
// velocity component that took them out.
type RestrictToBox struct{ Box geom.AABB }

// Name implements Action.
func (a *RestrictToBox) Name() string { return "restrict-to-box" }

// Kind implements Action.
func (a *RestrictToBox) Kind() Kind { return KindPosition }

// Cost implements Action.
func (a *RestrictToBox) Cost() float64 { return 1.0 }

// Apply implements ParticleAction.
func (a *RestrictToBox) Apply(_ *Context, p *particle.Particle) {
	c := a.Box.Clamp(p.Pos)
	if c == p.Pos {
		return
	}
	if c.X != p.Pos.X {
		p.Vel.X = 0
	}
	if c.Y != p.Pos.Y {
		p.Vel.Y = 0
	}
	if c.Z != p.Pos.Z {
		p.Vel.Z = 0
	}
	p.Pos = c
}
