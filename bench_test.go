// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) plus the
// ablations of DESIGN.md §5. Each benchmark runs the full experiment
// per iteration and reports the headline speed-up (or metric) via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness.
package pscluster_test

import (
	"testing"

	"pscluster"
	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/experiments"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
	"pscluster/internal/stats"
)

// benchCfg is the experiment scale the benchmarks run at: big enough
// for steady-state balancing, small enough to iterate.
var benchCfg = experiments.Config{ParticlesPerSystem: 2000, Systems: 8, Frames: 12, DT: 0.1}

func reportTable(b *testing.B, tab *stats.Table, cells map[string][2]int) {
	for name, rc := range cells {
		b.ReportMetric(tab.Cell(rc[0], rc[1]), name)
	}
}

// BenchmarkTable1SnowMyrinet regenerates Table 1 (snow, Myrinet + GCC).
func BenchmarkTable1SnowMyrinet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{
				"speedup/8P-FS-SLB":  {4, 1},
				"speedup/16P-FS-SLB": {5, 1},
				"speedup/16P-IS-DLB": {5, 2},
			})
		}
	}
}

// BenchmarkTable2SnowHeterogeneous regenerates Table 2 (snow,
// Fast-Ethernet + ICC, heterogeneous mixes).
func BenchmarkTable2SnowHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{
				"speedup/8B8A-16P": {2, 0},
				"speedup/2B2C-6P":  {5, 0},
			})
		}
	}
}

// BenchmarkTable3FountainMyrinet regenerates Table 3 (fountain,
// Myrinet + GCC).
func BenchmarkTable3FountainMyrinet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{
				"speedup/8P-FS-DLB":  {4, 3},
				"speedup/16P-FS-DLB": {5, 3},
			})
		}
	}
}

// BenchmarkTextSnowFastEthernet regenerates §5.1's Fast-Ethernet snow
// results (X1).
func BenchmarkTextSnowFastEthernet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TextX1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{
				"speedup/FS-SLB": {0, 0},
				"speedup/FS-DLB": {0, 1},
			})
		}
	}
}

// BenchmarkTextSnowMixedAB regenerates §5.1's 4*A + 4*B results (X2).
func BenchmarkTextSnowMixedAB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TextX2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{
				"speedup/8P": {0, 0}, "speedup/16P": {1, 0},
			})
		}
	}
}

// BenchmarkTextFountainSixteenNodes regenerates §5.2's 8*B + 8*A
// fountain result (X3).
func BenchmarkTextFountainSixteenNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TextX3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{"speedup/16P": {0, 0}})
		}
	}
}

// BenchmarkTextFountainFastEthernet regenerates §5.2's Fast-Ethernet
// fountain result (X4).
func BenchmarkTextFountainFastEthernet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TextX4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{"speedup/2B2C-6P": {0, 0}})
		}
	}
}

// BenchmarkTextExchangeVolume regenerates the §5.1/§5.2 exchange-volume
// figures (X5).
func BenchmarkTextExchangeVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TextX5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{
				"particles-per-proc-frame/snow":     {0, 0},
				"particles-per-proc-frame/fountain": {1, 0},
			})
		}
	}
}

// BenchmarkTextTimeReduction regenerates the §5.3 time-reduction
// summary (X6).
func BenchmarkTextTimeReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TextX6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, tab, map[string][2]int{
				"reduction-pct/snow-myrinet":     {0, 0},
				"reduction-pct/fountain-myrinet": {2, 0},
			})
		}
	}
}

// BenchmarkFigure1DomainDecomposition exercises the Figure 1 structure:
// owner lookups over the initial equal decomposition.
func BenchmarkFigure1DomainDecomposition(b *testing.B) {
	scn := experiments.Snow(benchCfg, core.FiniteSpace, core.StaticLB)
	if err := scn.Validate(); err != nil {
		b.Fatal(err)
	}
	lo, hi := scn.SpaceInterval()
	st := particle.NewColumnStore(geom.AxisX, lo, hi, scn.Bins)
	r := geom.NewRNG(1)
	for i := 0; i < 10000; i++ {
		st.Add(particle.Particle{Pos: geom.V(r.Range(lo, hi), 0, 0)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.EachBatch(func(bin *particle.Batch) {
			for i := range bin.Pos {
				bin.Pos[i].X += 0.01
			}
		})
		st.PartitionBatch()
	}
}

// BenchmarkFigure2FrameLoop measures one full Figure 2 frame cycle
// (creation → calculus → exchange → balancing → render).
func BenchmarkFigure2FrameLoop(b *testing.B) {
	cfg := benchCfg
	cfg.Frames = 1
	cl := cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scn := experiments.Snow(cfg, core.FiniteSpace, core.DynamicLB)
		if _, err := core.RunParallel(scn, cl, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

func runISSnow(b *testing.B, mutate func(*core.Scenario)) float64 {
	b.Helper()
	scn := experiments.Snow(benchCfg, core.InfiniteSpace, core.DynamicLB)
	if mutate != nil {
		mutate(&scn)
	}
	cl := cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 8})
	seq, err := core.RunSequential(experiments.Snow(benchCfg, core.FiniteSpace, core.StaticLB),
		cluster.TypeB, cluster.GCC)
	if err != nil {
		b.Fatal(err)
	}
	par, err := core.RunParallel(scn, cl, 8)
	if err != nil {
		b.Fatal(err)
	}
	return par.Speedup(seq)
}

// BenchmarkAblationPairingRules compares the paper's parity-alternating
// pairwise evaluation against a fixed-order one.
func BenchmarkAblationPairingRules(b *testing.B) {
	var alternating, fixed float64
	for i := 0; i < b.N; i++ {
		alternating = runISSnow(b, nil)
		fixed = runISSnow(b, func(s *core.Scenario) { s.NaivePairing = true })
	}
	b.ReportMetric(alternating, "speedup/alternating")
	b.ReportMetric(fixed, "speedup/fixed-order")
}

// BenchmarkAblationSubdomainStore compares the paper's sub-domain
// binned store against a single-vector store (1 bin) for the exchange
// and donation paths.
func BenchmarkAblationSubdomainStore(b *testing.B) {
	for _, bins := range []int{1, 16} {
		name := "single-vector"
		if bins > 1 {
			name = "subdomain-bins"
		}
		b.Run(name, func(b *testing.B) {
			st := particle.NewColumnStore(geom.AxisX, 0, 100, bins)
			r := geom.NewRNG(3)
			for i := 0; i < 50000; i++ {
				st.Add(particle.Particle{Pos: geom.V(r.Range(0, 100), 0, 0)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				donated, _ := st.DonateBatch(500, particle.LowSide)
				st.Resize(0, 100)
				st.AddBatch(donated)
			}
		})
	}
}

// BenchmarkAblationPipelinedRender measures what overlapping frames
// with the image generator would buy over the paper's synchronous
// frames.
func BenchmarkAblationPipelinedRender(b *testing.B) {
	var sync, pipe float64
	for i := 0; i < b.N; i++ {
		sync = runISSnow(b, func(s *core.Scenario) { s.Mode = core.FiniteSpace })
		pipe = runISSnow(b, func(s *core.Scenario) {
			s.Mode = core.FiniteSpace
			s.PipelineFrames = true
		})
	}
	b.ReportMetric(sync, "speedup/synchronous")
	b.ReportMetric(pipe, "speedup/pipelined")
}

// BenchmarkAblationProportionalSplit compares power-proportional
// redistribution against an equal split on a heterogeneous cluster.
func BenchmarkAblationProportionalSplit(b *testing.B) {
	run := func(ignorePower bool) float64 {
		scn := experiments.Snow(benchCfg, core.FiniteSpace, core.DynamicLB)
		scn.IgnorePower = ignorePower
		cl := cluster.New(cluster.Myrinet, cluster.GCC,
			cluster.NodeSpec{Type: cluster.TypeB, Count: 4},
			cluster.NodeSpec{Type: cluster.TypeA, Count: 4})
		seq, err := core.RunSequential(experiments.Snow(benchCfg, core.FiniteSpace, core.StaticLB),
			cluster.TypeB, cluster.GCC)
		if err != nil {
			b.Fatal(err)
		}
		par, err := core.RunParallel(scn, cl, 8)
		if err != nil {
			b.Fatal(err)
		}
		return par.Speedup(seq)
	}
	var prop, equal float64
	for i := 0; i < b.N; i++ {
		prop = run(false)
		equal = run(true)
	}
	b.ReportMetric(prop, "speedup/proportional")
	b.ReportMetric(equal, "speedup/equal-split")
}

// BenchmarkAblationDecentralizedLB compares the centralized manager
// against the future-work decentralized variant.
func BenchmarkAblationDecentralizedLB(b *testing.B) {
	var central, decentral float64
	for i := 0; i < b.N; i++ {
		central = runISSnow(b, nil)
		decentral = runISSnow(b, func(s *core.Scenario) { s.LB = core.DecentralizedLB })
	}
	b.ReportMetric(central, "speedup/centralized")
	b.ReportMetric(decentral, "speedup/decentralized")
}

// BenchmarkAblationSystemSchedule compares the per-system Figure 2
// cycle against the batched multi-system schedule of §3.3.
func BenchmarkAblationSystemSchedule(b *testing.B) {
	run := func(sched core.Schedule) (float64, int) {
		scn := experiments.Snow(benchCfg, core.FiniteSpace, core.DynamicLB)
		scn.Schedule = sched
		cl := cluster.New(cluster.FastEthernet, cluster.GCC,
			cluster.NodeSpec{Type: cluster.TypeB, Count: 8})
		par, err := core.RunParallel(scn, cl, 8)
		if err != nil {
			b.Fatal(err)
		}
		return par.Time, par.MsgsSent
	}
	var tPer, tBatch float64
	var mPer, mBatch int
	for i := 0; i < b.N; i++ {
		tPer, mPer = run(core.PerSystemSchedule)
		tBatch, mBatch = run(core.BatchedSchedule)
	}
	b.ReportMetric(tPer, "vtime/per-system")
	b.ReportMetric(tBatch, "vtime/batched")
	b.ReportMetric(float64(mPer), "msgs/per-system")
	b.ReportMetric(float64(mBatch), "msgs/batched")
}

// BenchmarkBaselineSims compares the model against the Karl Sims CM-2
// baseline (§2) on a collision workload over Fast-Ethernet, where the
// baseline's ghost broadcast dominates.
func BenchmarkBaselineSims(b *testing.B) {
	mk := func() core.Scenario {
		scn := experiments.Snow(benchCfg, core.FiniteSpace, core.StaticLB)
		for i := range scn.Systems {
			acts := scn.Systems[i].Actions
			withCollide := append([]pscluster.Action{}, acts[:len(acts)-1]...)
			withCollide = append(withCollide,
				&pscluster.CollideParticles{Radius: 1.5, Elasticity: 0.8},
				acts[len(acts)-1])
			scn.Systems[i].Actions = withCollide
		}
		return scn
	}
	cl := cluster.New(cluster.FastEthernet, cluster.GCC,
		cluster.NodeSpec{Type: cluster.TypeB, Count: 8})
	var model, sims *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		model, err = core.RunParallel(mk(), cl, 8)
		if err != nil {
			b.Fatal(err)
		}
		sims, err = core.RunSimsBaseline(mk(), cl, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(model.Time, "vtime/model")
	b.ReportMetric(sims.Time, "vtime/sims")
	b.ReportMetric(float64(model.ExchangedParticles), "exchanged/model")
	b.ReportMetric(float64(sims.ExchangedParticles), "ghosts/sims")
}

// BenchmarkPublicAPIQuickstart exercises the facade end to end — the
// cost of a small complete animation through the public API.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	scn := pscluster.Scenario{
		Name: "bench-quickstart",
		Systems: []pscluster.System{{
			Name: "rain", Seed: 1,
			Actions: []pscluster.Action{
				&pscluster.Source{
					Rate: 500,
					Pos: pscluster.BoxDomain{B: pscluster.Box(
						pscluster.V(-10, 10, -10), pscluster.V(10, 12, 10))},
					Vel: pscluster.PointDomain{P: pscluster.V(0, -5, 0)},
				},
				&pscluster.Gravity{G: pscluster.V(0, -9.8, 0)},
				&pscluster.KillOld{MaxAge: 1},
				&pscluster.Move{},
			},
		}},
		Axis: pscluster.AxisX, Mode: pscluster.InfiniteSpace,
		Frames: 5, DT: 0.1, LB: pscluster.DynamicLB,
	}
	cl := pscluster.NewCluster(pscluster.Myrinet, pscluster.GCC, pscluster.Nodes(pscluster.TypeB, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pscluster.RunParallel(scn, cl, 2); err != nil {
			b.Fatal(err)
		}
	}
}
