package core

import (
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// straddlePair builds a scenario with exactly two particles heading at
// each other across a domain boundary. Without the ghost exchange, the
// parallel run misses the collision; with it, both bounce.
func straddlePair() Scenario {
	return Scenario{
		Name: "straddle",
		Systems: []System{{
			Name: "pair",
			Seed: 1,
			Actions: []actions.Action{
				&twoParticleSource{},
				&actions.CollideParticles{Radius: 2, Elasticity: 1},
				&actions.Move{},
			},
		}},
		Axis:             geom.AxisX,
		Space:            geom.Box(geom.V(-10, -10, -10), geom.V(10, 10, 10)),
		Mode:             FiniteSpace,
		Frames:           1,
		DT:               0.1,
		LB:               StaticLB,
		ExchangeScanWork: 0.5,
		CollectParticles: true,
	}
}

// twoParticleSource emits one approaching pair on the first call and
// nothing afterwards.
type twoParticleSource struct{ fired bool }

func (s *twoParticleSource) Name() string       { return "two-particle-source" }
func (s *twoParticleSource) Kind() actions.Kind { return actions.KindCreate }
func (s *twoParticleSource) Cost() float64      { return 2.0 }

func (s *twoParticleSource) GenerateInto(ctx *actions.Context, dst *particle.Batch) {
	if s.fired {
		return
	}
	s.fired = true
	// With two calculators over [-10, 10] the boundary is at x = 0; the
	// pair straddles it, closing at combined speed 10.
	dst.Append(particle.Particle{Pos: geom.V(-0.5, 0, 0), Vel: geom.V(5, 0, 0), Rand: ctx.RNG.Uint64()})
	dst.Append(particle.Particle{Pos: geom.V(0.5, 0, 0), Vel: geom.V(-5, 0, 0), Rand: ctx.RNG.Uint64()})
}

func TestGhostCollisionsDetectCrossBoundaryPairs(t *testing.T) {
	// Without ghosts: the two calculators each hold one particle and
	// never see the other — velocities unchanged.
	plain := straddlePair()
	res, err := RunParallel(plain, testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.FinalParticles[0] {
		if p.Vel.X == 0 || (p.Pos.X < 0 && p.Vel.X < 0) {
			t.Fatalf("without ghosts the pair should pass through: %+v", p)
		}
	}

	// With ghosts: elastic head-on collision swaps velocities, so the
	// particles separate.
	ghosted := straddlePair()
	ghosted.GhostCollisions = true
	res2, err := RunParallel(ghosted, testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	ps := res2.FinalParticles[0]
	if len(ps) != 2 {
		t.Fatalf("%d particles", len(ps))
	}
	left, right := ps[0], ps[1]
	if left.Vel.X >= 0 || right.Vel.X <= 0 {
		t.Errorf("with ghosts the pair should bounce apart: %v / %v", left.Vel, right.Vel)
	}
	// Momentum conserved.
	if left.Vel.X+right.Vel.X != 0 {
		t.Errorf("momentum not conserved: %v + %v", left.Vel.X, right.Vel.X)
	}
}

func TestGhostCollisionsMatchSequentialPhysicsForThePair(t *testing.T) {
	// A single isolated pair has no multi-collision ordering ambiguity,
	// so the ghosted parallel run must match the sequential engine
	// exactly.
	scn := straddlePair()
	seq, err := RunSequential(scn, cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	scn2 := straddlePair()
	scn2.GhostCollisions = true
	par, err := RunParallel(scn2, testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.FinalParticles[0] {
		if seq.FinalParticles[0][i] != par.FinalParticles[0][i] {
			t.Fatalf("particle %d differs:\nseq %+v\npar %+v", i,
				seq.FinalParticles[0][i], par.FinalParticles[0][i])
		}
	}
}

func TestGhostCollisionsDeterministic(t *testing.T) {
	scn := collisionScenario()
	scn.GhostCollisions = true
	r1, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("ghosted runs diverged: %v vs %v", r1.Time, r2.Time)
	}
	for f := range r1.FrameChecksums {
		if r1.FrameChecksums[f] != r2.FrameChecksums[f] {
			t.Fatalf("frame %d differs", f)
		}
	}
}

func TestGhostBandTrafficIsLocal(t *testing.T) {
	// The ghost band must cost far less than the Sims broadcast.
	scn := collisionScenario()
	scn.GhostCollisions = true
	model, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	sims, err := RunSimsBaseline(collisionScenario(), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if model.BytesSent*2 > sims.BytesSent {
		t.Errorf("ghost-band bytes %d should be well under the broadcast's %d",
			model.BytesSent, sims.BytesSent)
	}
}

func TestGhostCollisionsWorkWithBatchedSchedule(t *testing.T) {
	scn := collisionScenario()
	scn.GhostCollisions = true
	scn.Schedule = BatchedSchedule
	if _, err := RunParallel(scn, testCluster(4), 4); err != nil {
		t.Fatal(err)
	}
}
