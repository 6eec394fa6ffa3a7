package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
	"pscluster/internal/obs"
	"pscluster/internal/particle"
)

// miniSnow is a reduced snow-like scenario: three systems of emitters
// dropping particles that drift sideways, bounce on a floor and die.
func miniSnow(lb LBMode, mode SpaceMode) Scenario {
	const nSys = 3
	systems := make([]System, nSys)
	for i := range systems {
		x0 := float64(i-1) * 30
		systems[i] = System{
			Name: fmt.Sprintf("sys%d", i),
			Seed: uint64(100 + i),
			Actions: []actions.Action{
				&actions.Source{
					Rate:  150,
					Pos:   geom.BoxDomain{B: geom.Box(geom.V(x0-20, 35, -5), geom.V(x0+20, 45, 5))},
					Vel:   geom.BoxDomain{B: geom.Box(geom.V(-4, -12, -1), geom.V(4, -6, 1))},
					Color: geom.PointDomain{P: geom.V(1, 1, 1)},
					Size:  0.4, Alpha: 0.8,
				},
				&actions.Gravity{G: geom.V(0, -9.8, 0)},
				&actions.RandomAccel{Domain: geom.SphereDomain{OuterR: 3}},
				&actions.Bounce{Plane: geom.NewPlane(geom.V(0, 0, 0), geom.V(0, 1, 0)), Elasticity: 0.4},
				&actions.KillOld{MaxAge: 3},
				&actions.SinkBelow{Axis: geom.AxisY, Threshold: -5},
				&actions.Move{},
			},
		}
	}
	return Scenario{
		Name:             "mini-snow",
		Systems:          systems,
		Axis:             geom.AxisX,
		Space:            geom.Box(geom.V(-60, -10, -10), geom.V(60, 60, 10)),
		Mode:             mode,
		Frames:           8,
		DT:               0.1,
		Ratio:            4,
		LB:               lb,
		ExchangeScanWork: 0.5,
		CollectParticles: true,
	}
}

func testCluster(nodes int) *cluster.Cluster {
	return cluster.New(cluster.Myrinet, cluster.GCC,
		cluster.NodeSpec{Type: cluster.TypeB, Count: nodes})
}

func TestSequentialSmoke(t *testing.T) {
	res, err := RunSequential(miniSnow(StaticLB, FiniteSpace), cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Error("zero virtual time")
	}
	if len(res.FrameChecksums) != 8 {
		t.Errorf("%d checksums", len(res.FrameChecksums))
	}
	total := 0
	for _, ps := range res.FinalParticles {
		total += len(ps)
	}
	if total == 0 {
		t.Error("no particles at end of run")
	}
}

// The central correctness claim: the parallel engine produces exactly
// the particles and frames the sequential one does, for every LB and
// space mode and several calculator counts.
func TestSeqParallelEquivalence(t *testing.T) {
	for _, lb := range []LBMode{StaticLB, DynamicLB, DecentralizedLB} {
		for _, mode := range []SpaceMode{FiniteSpace, InfiniteSpace} {
			for _, nCalc := range []int{1, 3, 4} {
				name := fmt.Sprintf("%v/%v/%dcalc", lb, mode, nCalc)
				t.Run(name, func(t *testing.T) {
					scn := miniSnow(lb, mode)
					seq, err := RunSequential(scn, cluster.TypeB, cluster.GCC)
					if err != nil {
						t.Fatal(err)
					}
					par, err := RunParallel(scn, testCluster(4), nCalc)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, seq, par)
				})
			}
		}
	}
}

func compareResults(t *testing.T, seq, par *Result) {
	t.Helper()
	if len(seq.FrameChecksums) != len(par.FrameChecksums) {
		t.Fatalf("frame counts differ: %d vs %d", len(seq.FrameChecksums), len(par.FrameChecksums))
	}
	for f := range seq.FrameChecksums {
		if seq.FrameChecksums[f] != par.FrameChecksums[f] {
			t.Fatalf("frame %d checksum: seq %x vs par %x", f, seq.FrameChecksums[f], par.FrameChecksums[f])
		}
	}
	if len(seq.FinalParticles) != len(par.FinalParticles) {
		t.Fatalf("system counts differ")
	}
	for si := range seq.FinalParticles {
		a, b := seq.FinalParticles[si], par.FinalParticles[si]
		if len(a) != len(b) {
			t.Fatalf("system %d: %d vs %d particles", si, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("system %d particle %d differs:\nseq %+v\npar %+v", si, i, a[i], b[i])
			}
		}
	}
}

func TestParallelDeterministic(t *testing.T) {
	scn := miniSnow(DynamicLB, InfiniteSpace)
	r1, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("times differ: %v vs %v", r1.Time, r2.Time)
	}
	for f := range r1.FrameChecksums {
		if r1.FrameChecksums[f] != r2.FrameChecksums[f] {
			t.Fatalf("frame %d differs", f)
		}
	}
	if r1.ExchangedParticles != r2.ExchangedParticles || r1.LBMoved != r2.LBMoved {
		t.Error("exchange/LB counters differ between identical runs")
	}
}

func TestRasterizeDeterministic(t *testing.T) {
	scn := miniSnow(StaticLB, FiniteSpace)
	scn.Render.Rasterize = true
	r1, err := RunParallel(scn, testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunParallel(scn, testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	for f := range r1.FrameChecksums {
		if r1.FrameChecksums[f] != r2.FrameChecksums[f] {
			t.Fatalf("rasterized frame %d differs", f)
		}
	}
}

func TestExchangeHappens(t *testing.T) {
	res, err := RunParallel(miniSnow(StaticLB, FiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExchangedParticles == 0 {
		t.Error("no particles exchanged despite sideways drift")
	}
	if res.ExchangedBytes == 0 {
		t.Error("no exchange bytes counted")
	}
}

func TestDLBMovesParticlesUnderImbalance(t *testing.T) {
	// Infinite space concentrates everything in the central domain;
	// dynamic balancing must move particles outward.
	res, err := RunParallel(miniSnow(DynamicLB, InfiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBMoved == 0 {
		t.Error("DLB never moved a particle despite the IS pathology")
	}
	if res.LBRounds == 0 {
		t.Error("no LB rounds recorded")
	}
}

func TestSLBNeverBalances(t *testing.T) {
	res, err := RunParallel(miniSnow(StaticLB, InfiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.LBMoved != 0 || res.LBRounds != 0 {
		t.Error("static LB performed balancing")
	}
}

func TestDLBBeatsSLBInInfiniteSpace(t *testing.T) {
	seq, err := RunSequential(miniSnow(StaticLB, InfiniteSpace), cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	slb, err := RunParallel(miniSnow(StaticLB, InfiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	dlb, err := RunParallel(miniSnow(DynamicLB, InfiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if dlb.Speedup(seq) <= slb.Speedup(seq) {
		t.Errorf("IS: DLB speedup %.2f should beat SLB %.2f",
			dlb.Speedup(seq), slb.Speedup(seq))
	}
}

func TestMoreCalculatorsHelpUnderFiniteSpace(t *testing.T) {
	seq, err := RunSequential(miniSnow(StaticLB, FiniteSpace), cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	two, err := RunParallel(miniSnow(StaticLB, FiniteSpace), testCluster(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunParallel(miniSnow(StaticLB, FiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, s4 := two.Speedup(seq), four.Speedup(seq)
	if s4 <= s2 {
		t.Errorf("FS-SLB: 4 calcs (%.2f) should beat 2 calcs (%.2f)", s4, s2)
	}
	if s2 <= 1 {
		t.Errorf("2 calcs slower than sequential: %.2f", s2)
	}
}

// figure2CalcOrder ranks a calculator's phases in Figure 2's order;
// every calculator span but the frame barrier must be one of them.
var figure2CalcOrder = map[string]int{
	"addition": 0, "calculus": 1, "exchange": 2, "load-information": 3,
	"render-send": 4, "new-dims": 5, "load-balance": 6, "decentralized-lb": 7,
}

// checkFigure2Order checks a run's profile against the Figure-2 phase
// structure: per (frame, system tag, calculator) the calculator's phases
// run in figure2CalcOrder and include every phase the LB mode always
// runs, every calculator records them, and per rank the span ends, in
// program order, never go backwards.
func checkFigure2Order(t *testing.T, prof *obs.Profile, lb LBMode, nCalc int) {
	t.Helper()
	mandatory := []string{"calculus", "exchange", "render-send"}
	switch lb {
	case DynamicLB:
		mandatory = append(mandatory, "load-information", "new-dims")
	case DecentralizedLB:
		mandatory = append(mandatory, "decentralized-lb")
	}
	// Spans arrive sorted by start time; a stable sort by rank restores
	// each rank's program order.
	spans := slices.Clone(prof.Spans)
	slices.SortStableFunc(spans, func(a, b obs.Span) int { return cmp.Compare(a.Rank, b.Rank) })
	type key struct{ frame, sys, rank int }
	last := map[key]int{}
	seen := map[key]map[string]bool{}
	lastEnd := map[int]float64{}
	for _, s := range spans {
		if s.End < lastEnd[s.Rank] {
			t.Fatalf("rank %d: %q ends at %v, before the previous span's %v", s.Rank, s.Phase, s.End, lastEnd[s.Rank])
		}
		lastEnd[s.Rank] = s.End
		if s.Rank < rankCalc0 || s.Phase == "frame-barrier" {
			continue
		}
		order, ok := figure2CalcOrder[s.Phase]
		if !ok {
			t.Fatalf("rank %d: calculator phase %q is not in Figure 2", s.Rank, s.Phase)
		}
		k := key{s.Frame, s.System, s.Rank}
		if prev, exists := last[k]; exists && order < prev {
			t.Fatalf("rank %d frame %d sys %d: %q after a later phase", s.Rank, s.Frame, s.System, s.Phase)
		}
		last[k] = order
		if seen[k] == nil {
			seen[k] = map[string]bool{}
		}
		seen[k][s.Phase] = true
	}
	calcs := map[int]bool{}
	for k, phases := range seen {
		calcs[k.rank] = true
		for _, phase := range mandatory {
			if !phases[phase] {
				t.Errorf("rank %d frame %d sys %d missing phase %q", k.rank, k.frame, k.sys, phase)
			}
		}
	}
	if len(calcs) != nCalc {
		t.Errorf("spans from %d calculators, want %d", len(calcs), nCalc)
	}
}

// Every compiled program — schedule × LB policy × decomposition, at
// several calculator counts — must record its calculator phases in
// Figure 2's order.
func TestFigure2PhaseOrder(t *testing.T) {
	for _, sched := range []Schedule{PerSystemSchedule, BatchedSchedule} {
		for _, lb := range []LBMode{StaticLB, DynamicLB, DecentralizedLB} {
			for _, decomp := range []DecompMode{DecompSlab, DecompGrid, DecompVoronoi} {
				scn := miniSnow(lb, FiniteSpace)
				scn.Schedule, scn.Decomp, scn.Frames = sched, decomp, 3
				if probe := scn; probe.Validate() != nil {
					continue
				}
				for _, nCalc := range []int{2, 3, 5} {
					t.Run(fmt.Sprintf("%v/%v/%v/%dcalc", sched, lb, decomp, nCalc), func(t *testing.T) {
						_, prof, err := RunParallelProfiled(scn, testCluster(5), nCalc)
						if err != nil {
							t.Fatal(err)
						}
						checkFigure2Order(t, prof, lb, nCalc)
					})
				}
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Scenario{
		{Name: "no-systems", Frames: 1, DT: 0.1},
		{Name: "no-frames", Systems: []System{{Actions: []actions.Action{&actions.Move{}}}}, DT: 0.1},
		{Name: "no-dt", Systems: []System{{Actions: []actions.Action{&actions.Move{}}}}, Frames: 1},
		{Name: "bad-ratio", Systems: []System{{Actions: []actions.Action{&actions.Move{}}}},
			Frames: 1, DT: 0.1, Ratio: 0.5},
		{Name: "empty-actions", Systems: []System{{}}, Frames: 1, DT: 0.1},
		// Both used to panic out of the engines: makeslice and a nil
		// dereference in the generator.
		{Name: "negative-rate", Systems: []System{{Actions: []actions.Action{
			&actions.Source{Rate: -5, Pos: geom.PointDomain{}}, &actions.Move{}}}}, Frames: 1, DT: 0.1},
		{Name: "nil-source-pos", Systems: []System{{Actions: []actions.Action{
			&actions.Source{Rate: 5}, &actions.Move{}}}}, Frames: 1, DT: 0.1},
	}
	// A store action's radius is its neighbor grid's cell size.
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		for _, a := range []actions.Action{
			&actions.CollideParticles{Radius: r, Elasticity: 1},
			&actions.MatchVelocity{Radius: r, Strength: 1},
		} {
			bad = append(bad, Scenario{Name: fmt.Sprintf("%s-radius-%v", a.Name(), r),
				Systems: []System{{Actions: []actions.Action{&actions.Move{}, a}}}, Frames: 1, DT: 0.1})
		}
	}
	for _, scn := range bad {
		s := scn
		s.Mode = InfiniteSpace
		if err := s.Validate(); err == nil {
			t.Errorf("scenario %q validated", s.Name)
		}
	}
	ok := Scenario{Name: "store-actions", Mode: InfiniteSpace, Frames: 1, DT: 0.1,
		Systems: []System{{Actions: []actions.Action{
			&actions.CollideParticles{Radius: 0.5, Elasticity: 1}, &actions.MatchVelocity{Radius: 2, Strength: 1}}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("positive finite radii rejected: %v", err)
	}
}

// Inputs that used to pass Validate and then panic out of the engine
// (a negative bin count, a negative framebuffer) or run on NaN/+Inf
// clocks. Each must now fail Validate, and RunSequential must return
// that error instead of panicking.
func TestValidateRejectsEngineBreakingInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Scenario)
	}{
		{"bins-negative", func(s *Scenario) { s.Bins = -1 }},
		{"raster-width-negative", func(s *Scenario) { s.Render.Rasterize, s.Render.Width = true, -8 }},
		{"raster-height-negative", func(s *Scenario) { s.Render.Rasterize, s.Render.Height = true, -8 }},
		{"dt-nan", func(s *Scenario) { s.DT = math.NaN() }},
		{"dt-inf", func(s *Scenario) { s.DT = math.Inf(1) }},
		{"ratio-nan", func(s *Scenario) { s.Ratio = math.NaN() }},
		{"ratio-inf", func(s *Scenario) { s.Ratio = math.Inf(1) }},
		{"exchange-scan-nan", func(s *Scenario) { s.ExchangeScanWork = math.NaN() }},
		{"exchange-scan-inf", func(s *Scenario) { s.ExchangeScanWork = math.Inf(1) }},
		{"exchange-scan-negative", func(s *Scenario) { s.ExchangeScanWork = -4 }},
		{"render-cost-nan", func(s *Scenario) { s.Render.CostPerParticle = math.NaN() }},
		{"render-cost-inf", func(s *Scenario) { s.Render.CostPerParticle = math.Inf(1) }},
		{"render-cost-negative", func(s *Scenario) { s.Render.CostPerParticle = -1 }},
		{"frame-overhead-nan", func(s *Scenario) { s.Render.FrameOverhead = math.NaN() }},
		{"frame-overhead-inf", func(s *Scenario) { s.Render.FrameOverhead = math.Inf(1) }},
		{"frame-overhead-negative", func(s *Scenario) { s.Render.FrameOverhead = -1 }},
		{"lb-threshold-negative", func(s *Scenario) { s.LBThreshold = -1 }},
		{"random-accel-no-domain", func(s *Scenario) { s.Systems[0].Actions[2] = &actions.RandomAccel{} }},
		{"sink-no-domain", func(s *Scenario) { s.Systems[0].Actions[2] = &actions.Sink{} }},
		{"jet-no-domain", func(s *Scenario) { s.Systems[0].Actions[2] = &actions.Jet{} }},
		{"nil-system-action", func(s *Scenario) { s.Systems[1].Actions[2] = nil }},
		{"nil-pointer-system-action", func(s *Scenario) { s.Systems[1].Actions[2] = (*actions.Sink)(nil) }},
		{"nil-script-action", func(s *Scenario) { s.Script = []ScriptEntry{{Frame: 1, System: 0}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scn := miniSnow(StaticLB, FiniteSpace)
			scn.Frames = 2
			tc.edit(&scn)
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panicked: %v", r)
				}
			}()
			v := scn
			if err := v.Validate(); err == nil {
				t.Error("Validate accepted the scenario")
			}
			if _, err := RunSequential(scn, cluster.TypeB, cluster.GCC); err == nil {
				t.Error("RunSequential returned no error")
			}
		})
	}
}

func TestRunParallelArgErrors(t *testing.T) {
	scn := miniSnow(StaticLB, FiniteSpace)
	if _, err := RunParallel(scn, testCluster(2), 0); err == nil {
		t.Error("zero calculators accepted")
	}
}

func TestPerProcTimes(t *testing.T) {
	res, err := RunParallel(miniSnow(StaticLB, FiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerProcTime) != 6 { // manager + image gen + 4 calcs
		t.Fatalf("PerProcTime has %d entries", len(res.PerProcTime))
	}
	for i, pt := range res.PerProcTime {
		if pt <= 0 {
			t.Errorf("proc %d has zero clock", i)
		}
		if pt > res.Time {
			t.Errorf("proc %d clock %v exceeds total %v", i, pt, res.Time)
		}
	}
}

func TestFrameTimesMonotonic(t *testing.T) {
	for name, run := range map[string]func() (*Result, error){
		"sequential": func() (*Result, error) {
			return RunSequential(miniSnow(StaticLB, FiniteSpace), cluster.TypeB, cluster.GCC)
		},
		"parallel": func() (*Result, error) {
			return RunParallel(miniSnow(DynamicLB, FiniteSpace), testCluster(4), 4)
		},
		"sims": func() (*Result, error) {
			return RunSimsBaseline(miniSnow(StaticLB, FiniteSpace), testCluster(4), 4)
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.FrameTimes) != res.Frames {
			t.Fatalf("%s: %d frame times for %d frames", name, len(res.FrameTimes), res.Frames)
		}
		for i := 1; i < len(res.FrameTimes); i++ {
			if res.FrameTimes[i] <= res.FrameTimes[i-1] {
				t.Fatalf("%s: frame %d completed at %v, before frame %d at %v",
					name, i, res.FrameTimes[i], i-1, res.FrameTimes[i-1])
			}
		}
		if last := res.FrameTimes[len(res.FrameTimes)-1]; last > res.Time {
			t.Errorf("%s: last frame at %v after total time %v", name, last, res.Time)
		}
	}
}

// One per-particle pass counts what the compute-pass counters export:
// every non-empty bin once and every stored particle once. The
// particles fill only the lower half of the store, so empty bins exist
// and must not count.
func TestApplyToSetCountsPasses(t *testing.T) {
	const nBins = 16
	st := particle.NewColumnStore(geom.AxisX, -50, 50, nBins)
	rng := geom.NewRNG(7)
	for i := 0; i < 500; i++ {
		st.Add(particle.Particle{Pos: geom.V(rng.Float64()*50-50, 0, 0)})
	}
	wantBins := 0
	for bi := 0; bi < nBins; bi++ {
		if st.Bin(bi).Len() > 0 {
			wantBins++
		}
	}
	if wantBins == 0 || wantBins == nBins {
		t.Fatalf("%d of %d bins occupied: the store cannot expose empty-bin counting", wantBins, nBins)
	}
	ctx := &actions.Context{DT: 0.1}
	bins, parts := applyToSet(st, ctx, &actions.Gravity{G: geom.V(0, -9.8, 0)})
	if bins != wantBins || parts != 500 {
		t.Errorf("applyToSet counted %d bins, %d particles; want %d, 500", bins, parts, wantBins)
	}
}

func TestSpaceModeLBModeStrings(t *testing.T) {
	if InfiniteSpace.String() != "IS" || FiniteSpace.String() != "FS" {
		t.Error("space mode strings wrong")
	}
	if StaticLB.String() != "SLB" || DynamicLB.String() != "DLB" {
		t.Error("LB mode strings wrong")
	}
}
