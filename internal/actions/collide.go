package actions

import (
	"math"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// gridIndex hashes a position into an integer cell for neighbor search.
func gridIndex(p geom.Vec3, cell float64) [3]int {
	return [3]int{
		int(math.Floor(p.X / cell)),
		int(math.Floor(p.Y / cell)),
		int(math.Floor(p.Z / cell)),
	}
}

// buildGrid indexes every particle of ps into cells of the given size.
// The cells hold pointers into ps, so ps must not move while the grid
// is in use.
func buildGrid(ps []particle.Particle, cell float64) map[[3]int][]*particle.Particle {
	grid := make(map[[3]int][]*particle.Particle)
	for i := range ps {
		k := gridIndex(ps[i].Pos, cell)
		grid[k] = append(grid[k], &ps[i])
	}
	return grid
}

// forNeighbors calls fn for every particle in the 27 cells around p's
// cell (excluding p itself).
func forNeighbors(grid map[[3]int][]*particle.Particle, cell float64,
	p *particle.Particle, fn func(q *particle.Particle)) {
	k := gridIndex(p.Pos, cell)
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				for _, q := range grid[[3]int{k[0] + dx, k[1] + dy, k[2] + dz}] {
					if q != p {
						fn(q)
					}
				}
			}
		}
	}
}

// CollideParticles performs elastic collisions between particles closer
// than Radius — the inter-particle collision detection the model's data
// locality exists to support (§3.1.4: without domains, "it would be
// necessary to test collision with all the particles of all the
// processes"). It is a StoreAction: its cost depends on local density.
type CollideParticles struct {
	Radius     float64
	Elasticity float64
}

// Name implements Action.
func (a *CollideParticles) Name() string { return "collide-particles" }

// Kind implements Action.
func (a *CollideParticles) Kind() Kind { return KindStore }

// Cost implements Action: base per-particle cost; pair tests add more in
// ApplyStore's return value.
func (a *CollideParticles) Cost() float64 { return 2.0 }

// ApplyStore implements StoreAction. Overlapping pairs exchange the
// normal components of their velocities scaled by Elasticity, and are
// pushed apart to the contact distance.
func (a *CollideParticles) ApplyStore(_ *Context, ps []particle.Particle) float64 {
	grid := buildGrid(ps, a.Radius)
	work := a.Cost() * float64(len(ps))
	r2 := a.Radius * a.Radius
	for i := range ps {
		p := &ps[i]
		forNeighbors(grid, a.Radius, p, func(q *particle.Particle) {
			work += 0.25 // pair test
			// Handle each unordered pair once, from the lower pointer.
			if !pairOrdered(p, q) {
				return
			}
			d := q.Pos.Sub(p.Pos)
			dist2 := d.Len2()
			if dist2 >= r2 || dist2 == 0 {
				return
			}
			n := d.Norm()
			rel := p.Vel.Sub(q.Vel).Dot(n)
			if rel <= 0 {
				return // separating
			}
			impulse := n.Scale(rel * (1 + a.Elasticity) / 2)
			p.Vel = p.Vel.Sub(impulse)
			q.Vel = q.Vel.Add(impulse)
			// Positional de-penetration, split evenly.
			overlap := a.Radius - math.Sqrt(dist2)
			push := n.Scale(overlap / 2)
			p.Pos = p.Pos.Sub(push)
			q.Pos = q.Pos.Add(push)
			work += 2
		})
	}
	return work
}

// pairOrdered induces a stable order over particle pointers so each
// unordered pair is processed exactly once, deterministically, using
// position then velocity as tie-breakers (pointers are not portable
// ordering keys).
func pairOrdered(p, q *particle.Particle) bool {
	switch {
	case p.Pos.X != q.Pos.X:
		return p.Pos.X < q.Pos.X
	case p.Pos.Y != q.Pos.Y:
		return p.Pos.Y < q.Pos.Y
	case p.Pos.Z != q.Pos.Z:
		return p.Pos.Z < q.Pos.Z
	case p.Vel.X != q.Vel.X:
		return p.Vel.X < q.Vel.X
	case p.Vel.Y != q.Vel.Y:
		return p.Vel.Y < q.Vel.Y
	default:
		return p.Vel.Z < q.Vel.Z
	}
}

// ApplyWithGhosts resolves collisions for the process's own particles
// against read-only ghost copies owned by other processes, in addition
// to its own pairs. Each owner applies its own side of a
// cross-process pair; the impulse formula is antisymmetric, so the two
// owners' independent computations agree and momentum is conserved
// globally. Used by the Sims-style baseline, whose round-robin particle
// assignment has no locality and must broadcast ghosts to detect
// collisions (the deficiency §3.1.4's domains exist to avoid).
func (a *CollideParticles) ApplyWithGhosts(ctx *Context, ps []particle.Particle,
	ghosts []particle.Particle) float64 {
	work := a.ApplyStore(ctx, ps)
	if len(ghosts) == 0 {
		return work
	}
	// Index ghosts into the same cell structure.
	ggrid := make(map[[3]int][]int)
	for i := range ghosts {
		k := gridIndex(ghosts[i].Pos, a.Radius)
		ggrid[k] = append(ggrid[k], i)
	}
	r2 := a.Radius * a.Radius
	for i := range ps {
		p := &ps[i]
		k := gridIndex(p.Pos, a.Radius)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, gi := range ggrid[[3]int{k[0] + dx, k[1] + dy, k[2] + dz}] {
						work += 0.25
						g := &ghosts[gi]
						d := g.Pos.Sub(p.Pos)
						dist2 := d.Len2()
						if dist2 >= r2 || dist2 == 0 {
							continue
						}
						n := d.Norm()
						rel := p.Vel.Sub(g.Vel).Dot(n)
						if rel <= 0 {
							continue
						}
						impulse := n.Scale(rel * (1 + a.Elasticity) / 2)
						p.Vel = p.Vel.Sub(impulse)
						overlap := a.Radius - math.Sqrt(dist2)
						p.Pos = p.Pos.Sub(n.Scale(overlap / 2))
						work += 1
					}
				}
			}
		}
	}
	return work
}

// MatchVelocity blends each particle's velocity toward the average of
// its neighbors within Radius — the flocking primitive of the original
// API, included as a second locality-dependent action.
type MatchVelocity struct {
	Radius   float64
	Strength float64 // blend fraction per second
}

// Name implements Action.
func (a *MatchVelocity) Name() string { return "match-velocity" }

// Kind implements Action.
func (a *MatchVelocity) Kind() Kind { return KindStore }

// Cost implements Action.
func (a *MatchVelocity) Cost() float64 { return 2.0 }

// ApplyStore implements StoreAction.
func (a *MatchVelocity) ApplyStore(ctx *Context, ps []particle.Particle) float64 {
	grid := buildGrid(ps, a.Radius)
	work := a.Cost() * float64(len(ps))
	r2 := a.Radius * a.Radius
	// Two passes so the result does not depend on iteration order:
	// compute all averages against the pre-update velocities first.
	targets := make([]geom.Vec3, len(ps))
	has := make([]bool, len(ps))
	for i := range ps {
		p := &ps[i]
		var sum geom.Vec3
		n := 0
		forNeighbors(grid, a.Radius, p, func(q *particle.Particle) {
			work += 0.25
			if q.Pos.Sub(p.Pos).Len2() < r2 {
				sum = sum.Add(q.Vel)
				n++
			}
		})
		if n > 0 {
			targets[i] = sum.Scale(1 / float64(n))
			has[i] = true
		}
	}
	t := a.Strength * ctx.DT
	if t > 1 {
		t = 1
	}
	for i := range ps {
		if has[i] {
			ps[i].Vel = ps[i].Vel.Lerp(targets[i], t)
		}
	}
	return work
}
