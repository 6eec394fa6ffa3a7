package core_test

import (
	"runtime"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/experiments"
	"pscluster/internal/geom"
)

// mallocsPerFrame returns the heap objects one steady-state frame of
// run allocates: the Mallocs difference between a long and a short run,
// which cancels set-up, the population ramp and the final collection.
func mallocsPerFrame(t *testing.T, run func(frames int) error) float64 {
	t.Helper()
	const short, long = 2 * experiments.LifetimeFrames, 5 * experiments.LifetimeFrames
	mallocs := func(frames int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(frames); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(short) // grow the process-wide buffer pools first
	return (float64(mallocs(long)) - float64(mallocs(short))) / (long - short)
}

// The engines' allocation budget: a steady-state frame allocates
// nothing that depends on the particle count, so quadrupling the
// population must leave the objects per frame where they were, within
// maxGrowth — the slack for reused capacity that still reaches a new
// high-water mark now and then (bins, the neighbor grid), which the
// larger population does a little more often. A per-particle allocation
// anywhere in the frame — a boxed record in an action adapter, a store
// copied on Resize, a neighbor grid rebuilt from nothing by a store
// action — multiplies the count by the population ratio and fails here,
// and so does a batch built fresh every frame, whose append growth is
// logarithmic in the particles it takes; psperf, which shows the same
// thing as allocs_per_frame, runs outside the tier-1 suite.
func TestFrameAllocationsDoNotScaleWithPopulation(t *testing.T) {
	const maxGrowth = 24
	snow := func(perSystem, frames int) core.Scenario {
		cfg := experiments.Config{ParticlesPerSystem: perSystem, Systems: 8, Frames: frames, DT: 0.1}
		return experiments.Snow(cfg, core.FiniteSpace, core.DynamicLB)
	}
	// Two jets that meet head-on at the calculators' shared edge: the
	// store-action path with its ghost-band exchange, every frame.
	jets := func(perSystem, frames int) core.Scenario {
		jet := func(x0, x1, v0, v1 float64) *actions.Source {
			return &actions.Source{
				Rate: perSystem / (2 * experiments.LifetimeFrames),
				Pos:  geom.BoxDomain{B: geom.Box(geom.V(x0, -2, -2), geom.V(x1, 2, 2))},
				Vel:  geom.BoxDomain{B: geom.Box(geom.V(v0, -1, -1), geom.V(v1, 1, 1))},
				Size: 0.5, Alpha: 0.9,
			}
		}
		return core.Scenario{
			Name: "colliding-jets",
			Systems: []core.System{{Name: "jets", Seed: 7, Actions: []actions.Action{
				jet(-8, -6, 18, 24), jet(6, 8, -24, -18),
				&actions.CollideParticles{Radius: 1, Elasticity: 0.9},
				&actions.KillOld{MaxAge: 0.05 * experiments.LifetimeFrames},
				&actions.Move{},
			}}},
			Axis: geom.AxisX, Space: geom.Box(geom.V(-45, -25, -25), geom.V(45, 25, 25)),
			Mode: core.FiniteSpace, Frames: frames, DT: 0.05, LB: core.DynamicLB,
			GhostCollisions: true,
		}
	}
	// A clustered explosion under the Voronoi decomposition: geometry
	// rebalance and ownership migration every frame, leavers found by
	// PartitionOwnedBatch.
	explosion := func(perSystem, frames int) core.Scenario {
		cfg := experiments.Config{ParticlesPerSystem: perSystem, Systems: 8, Frames: frames, DT: 0.1}
		scn := experiments.ClusteredExplosion(cfg, core.FiniteSpace, core.DynamicLB)
		scn.Decomp = core.DecompVoronoi
		return scn
	}
	// One fast and one slow node: power-proportional balancing keeps
	// moving the boundary, so Resize's re-bin path runs too.
	hetero := cluster.New(cluster.FastEthernet, cluster.ICC,
		cluster.NodeSpec{Type: cluster.TypeB, Count: 1}, cluster.NodeSpec{Type: cluster.TypeA, Count: 1})
	engines := []struct {
		name string
		run  func(scn core.Scenario) error
	}{
		{"sequential", func(scn core.Scenario) error {
			_, err := core.RunSequential(scn, cluster.TypeB, cluster.GCC)
			return err
		}},
		{"parallel-dlb", func(scn core.Scenario) error {
			_, err := core.RunParallel(scn, hetero, 2)
			return err
		}},
	}
	scenarios := []struct {
		name         string
		build        func(perSystem, frames int) core.Scenario
		small, large int
	}{
		{"snow", snow, 500, 2000},
		{"jets", jets, 1000, 4000},
		{"explosion-voronoi", explosion, 500, 2000},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) {
					at := func(perSystem int) float64 {
						return mallocsPerFrame(t, func(frames int) error { return e.run(sc.build(perSystem, frames)) })
					}
					small, large := at(sc.small), at(sc.large)
					t.Logf("objects per frame: %.1f at %d per system, %.1f at %d", small, sc.small, large, sc.large)
					if large-small > maxGrowth {
						t.Errorf("objects per frame grew by %.1f (%.1f -> %.1f) for 4x the particles; want at most %d",
							large-small, small, large, maxGrowth)
					}
				})
			}
		})
	}
}
