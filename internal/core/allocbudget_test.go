package core_test

import (
	"runtime"
	"testing"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/experiments"
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
// nothing proportional to the particle count, so quadrupling the snow
// population must leave the objects per frame where they were. A
// per-particle allocation anywhere in the frame — a boxed record in an
// action adapter, a store copied on Resize — multiplies the count by
// the population ratio and fails here; psperf, which shows the same
// thing as allocs_per_frame, runs outside the tier-1 suite.
func TestFrameAllocationsDoNotScaleWithPopulation(t *testing.T) {
	snow := func(perSystem, frames int) core.Scenario {
		cfg := experiments.Config{ParticlesPerSystem: perSystem, Systems: 8, Frames: frames, DT: 0.1}
		return experiments.Snow(cfg, core.FiniteSpace, core.DynamicLB)
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
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			at := func(perSystem int) float64 {
				return mallocsPerFrame(t, func(frames int) error { return e.run(snow(perSystem, frames)) })
			}
			small, large := at(500), at(2000)
			t.Logf("objects per frame: %.0f at 8x500, %.0f at 8x2000", small, large)
			if large >= 1.5*small {
				t.Errorf("objects per frame grew %.2fx (%.0f -> %.0f) for 4x the particles; want < 1.5x",
					large/small, small, large)
			}
		})
	}
}
