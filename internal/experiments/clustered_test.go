package experiments

import (
	"fmt"
	"testing"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
)

// clusteredCfg is the shared configuration of the decomposition
// regression tests and BenchmarkDecompImbalance: big enough for the
// balancers to reach steady state, small enough for the test suite.
var clusteredCfg = Config{ParticlesPerSystem: 1200, Systems: 2, Frames: 16, DT: 0.1}

// clusteredWorkloads enumerates the planar stress cases.
var clusteredWorkloads = []struct {
	name  string
	build func(Config, core.SpaceMode, core.LBMode) core.Scenario
}{
	{"explosion", ClusteredExplosion},
	{"collapse", OrbitalCollapse},
}

// runClustered runs one clustered workload under DLB with the given
// decomposition on 6 calculators and returns the imbalance series.
func runClustered(t testing.TB, build func(Config, core.SpaceMode, core.LBMode) core.Scenario, d core.DecompMode) []float64 {
	scn := build(clusteredCfg, core.FiniteSpace, core.DynamicLB)
	scn.Decomp = d
	cl := homogeneousB(cluster.Myrinet, cluster.GCC, 8)
	res, err := core.RunParallel(scn, cl, 6)
	if err != nil {
		t.Fatalf("%v: %v", d, err)
	}
	if len(res.FrameImbalance) == 0 {
		t.Fatalf("%v: no imbalance series recorded", d)
	}
	return res.FrameImbalance
}

// steadyImbalance summarizes the tail (second half) of a per-frame
// max/mean imbalance series.
func steadyImbalance(series []float64) (max, mean float64) {
	tail := series[len(series)/2:]
	for _, v := range tail {
		if v > max {
			max = v
		}
		mean += v
	}
	return max, mean / float64(len(tail))
}

// TestClusteredWorkloadsArePlanar pins the degeneracy the clustered
// scenarios are built on: every emitter has zero X extent, so the whole
// population lives in the split axis's cross plane.
func TestClusteredWorkloadsArePlanar(t *testing.T) {
	for _, w := range clusteredWorkloads {
		scn := w.build(tiny, core.FiniteSpace, core.DynamicLB)
		scn.CollectParticles = true
		if err := scn.Validate(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		seq, err := core.RunSequential(scn, cluster.TypeB, cluster.GCC)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		n := 0
		for _, ps := range seq.FinalParticles {
			for _, p := range ps {
				n++
				if p.Pos.X != 0 {
					t.Fatalf("%s: particle drifted off the x=0 plane: %+v", w.name, p.Pos)
				}
			}
		}
		if n == 0 {
			t.Fatalf("%s: no particles survived to the final frame", w.name)
		}
	}
}

// TestClusteredDecompImbalance is the decomposition plane's payoff
// gate: on the planar clustered workloads, the 2-D grid and the Voronoi
// sites must each cut the steady-state max/mean imbalance at least 2×
// against the 1-D slab under dynamic balancing. The slab cannot help
// here — every particle shares one X coordinate, so one slab owns the
// entire population no matter where the balancer moves its edges —
// while the grid's cross-axis rows and the drifting Voronoi sites
// spread the plane over most of the calculators.
func TestClusteredDecompImbalance(t *testing.T) {
	for _, w := range clusteredWorkloads {
		t.Run(w.name, func(t *testing.T) {
			_, slab := steadyImbalance(runClustered(t, w.build, core.DecompSlab))
			_, grid := steadyImbalance(runClustered(t, w.build, core.DecompGrid))
			_, vor := steadyImbalance(runClustered(t, w.build, core.DecompVoronoi))
			t.Logf("%s steady-state imbalance: slab %.2f grid %.2f voronoi %.2f",
				w.name, slab, grid, vor)
			if grid > slab/2 {
				t.Errorf("grid %.2f does not halve slab %.2f", grid, slab)
			}
			if vor > slab/2 {
				t.Errorf("voronoi %.2f does not halve slab %.2f", vor, slab)
			}
		})
	}
}

// BenchmarkDecompImbalance measures the steady-state imbalance of each
// decomposition strategy on the clustered workloads and reports it as a
// custom benchmark unit. Lower is better; 1.0 is a perfectly even split
// and nCalc (6 here) is total collapse onto one calculator.
func BenchmarkDecompImbalance(b *testing.B) {
	for _, w := range clusteredWorkloads {
		for _, d := range []core.DecompMode{core.DecompSlab, core.DecompGrid, core.DecompVoronoi} {
			b.Run(fmt.Sprintf("%s/%v", w.name, d), func(b *testing.B) {
				var max, mean float64
				for i := 0; i < b.N; i++ {
					max, mean = steadyImbalance(runClustered(b, w.build, d))
				}
				b.ReportMetric(mean, "imbalance")
				b.ReportMetric(max, "imbalance-max")
			})
		}
	}
}
