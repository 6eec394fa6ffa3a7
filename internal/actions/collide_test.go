package actions

import (
	"math"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

func storeWith(ps ...particle.Particle) *particle.ColumnStore {
	s := particle.NewColumnStore(geom.AxisX, -100, 100, 8)
	s.AddSlice(ps)
	return s
}

// applyStore runs a store action the way the engines do: on the binned
// store's flat record view, scattered back to the columns afterwards.
func applyStore(a StoreAction, s *particle.ColumnStore) (work float64) {
	s.WithParticles(func(ps []particle.Particle) { work = a.ApplyStore(ctx(), ps) })
	return work
}

func TestCollideHeadOn(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(1, 0, 0)},
		particle.Particle{Pos: geom.V(0.5, 0, 0), Vel: geom.V(-1, 0, 0)},
	)
	applyStore(a, s)
	ps := s.All()
	// Fully elastic head-on equal-mass collision swaps velocities.
	var left, right particle.Particle
	for _, p := range ps {
		if p.Vel.X < 0 {
			left = p
		} else {
			right = p
		}
	}
	if math.Abs(left.Vel.X+1) > 1e-9 || math.Abs(right.Vel.X-1) > 1e-9 {
		t.Errorf("velocities after elastic swap: %v / %v", left.Vel, right.Vel)
	}
}

func TestCollideConservesMomentum(t *testing.T) {
	a := &CollideParticles{Radius: 2, Elasticity: 0.7}
	r := geom.NewRNG(9)
	var ps []particle.Particle
	for i := 0; i < 200; i++ {
		ps = append(ps, particle.Particle{
			Pos: geom.V(r.Range(-10, 10), r.Range(-10, 10), r.Range(-10, 10)),
			Vel: r.UnitVec().Scale(r.Range(0, 5)),
		})
	}
	var before geom.Vec3
	for _, p := range ps {
		before = before.Add(p.Vel)
	}
	s := storeWith(ps...)
	applyStore(a, s)
	var after geom.Vec3
	for _, p := range s.All() {
		after = after.Add(p.Vel)
	}
	if before.Dist(after) > 1e-6 {
		t.Errorf("momentum changed: %v -> %v", before, after)
	}
}

func TestCollideSeparatingPairUntouched(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(-1, 0, 0)},
		particle.Particle{Pos: geom.V(0.5, 0, 0), Vel: geom.V(1, 0, 0)},
	)
	applyStore(a, s)
	for _, p := range s.All() {
		if math.Abs(p.Vel.X) != 1 {
			t.Errorf("separating pair modified: %v", p.Vel)
		}
	}
}

func TestCollideDistantPairsUntouched(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(1, 0, 0)},
		particle.Particle{Pos: geom.V(50, 0, 0), Vel: geom.V(-1, 0, 0)},
	)
	applyStore(a, s)
	for _, p := range s.All() {
		if p.Vel.Len() != 1 {
			t.Errorf("distant pair modified: %v", p.Vel)
		}
	}
}

func TestCollideWorkGrowsWithDensity(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	r := geom.NewRNG(2)
	dense := make([]particle.Particle, 100)
	for i := range dense {
		dense[i].Pos = geom.V(r.Range(0, 2), r.Range(0, 2), r.Range(0, 2))
	}
	sparse := make([]particle.Particle, 100)
	for i := range sparse {
		sparse[i].Pos = geom.V(r.Range(-90, 90), r.Range(-90, 90), r.Range(-90, 90))
	}
	wDense := applyStore(a, storeWith(dense...))
	wSparse := applyStore(a, storeWith(sparse...))
	if wDense <= wSparse {
		t.Errorf("dense work %v should exceed sparse work %v", wDense, wSparse)
	}
}

func TestMatchVelocityBlends(t *testing.T) {
	a := &MatchVelocity{Radius: 5, Strength: 10}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(1, 0, 0)},
		particle.Particle{Pos: geom.V(1, 0, 0), Vel: geom.V(-1, 0, 0)},
	)
	applyStore(a, s)
	// Strength*DT = 1: each fully adopts the other's (pre-update)
	// velocity.
	var sum float64
	for _, p := range s.All() {
		sum += math.Abs(math.Abs(p.Vel.X) - 1)
	}
	if sum > 1e-9 {
		t.Errorf("velocities after full blend: %v", s.All())
	}
}

func TestMatchVelocityLonelyParticleUnchanged(t *testing.T) {
	a := &MatchVelocity{Radius: 1, Strength: 10}
	s := storeWith(particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(3, 2, 1)})
	applyStore(a, s)
	if got := s.All()[0].Vel; got != geom.V(3, 2, 1) {
		t.Errorf("lonely particle vel = %v", got)
	}
}

func TestCollideDeterministic(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 0.9}
	fresh := func() *particle.ColumnStore {
		r := geom.NewRNG(77)
		var ps []particle.Particle
		for i := 0; i < 300; i++ {
			ps = append(ps, particle.Particle{
				Pos: geom.V(r.Range(-5, 5), r.Range(-5, 5), r.Range(-5, 5)),
				Vel: r.UnitVec(),
			})
		}
		return storeWith(ps...)
	}
	run := func() []particle.Particle {
		s := fresh()
		applyStore(a, s)
		return s.All()
	}
	// The store's flat view is one more input: the same sweep over the
	// records in store order, with no store behind them, must agree.
	direct := fresh().All()
	a.ApplyStore(ctx(), direct)
	first := run()
	for name, other := range map[string][]particle.Particle{"second run": run(), "direct slice": direct} {
		for i := range first {
			if first[i] != other[i] {
				t.Fatalf("%s diverged at particle %d", name, i)
			}
		}
	}
}
