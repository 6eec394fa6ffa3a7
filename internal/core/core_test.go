package core

import (
	"fmt"
	"math"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
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

func TestFigure2PhaseOrder(t *testing.T) {
	scn := miniSnow(DynamicLB, FiniteSpace)
	scn.Trace = true
	scn.Frames = 2
	res, err := RunParallel(scn, testCluster(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	// For every calculator, within each (frame, system), the phases must
	// follow Figure 2's ordering.
	order := map[string]int{
		"addition": 0, "calculus": 1, "exchange": 2, "load-information": 3,
		"render-send": 4, "new-dims": 5, "load-balance": 6,
	}
	type key struct{ frame, sys, proc int }
	last := map[key]int{}
	seen := map[key]map[string]bool{}
	for _, ev := range res.Events {
		rank, ok := order[ev.Phase]
		if !ok {
			continue // manager/image-generator phases
		}
		k := key{ev.Frame, ev.System, ev.Proc}
		if prev, exists := last[k]; exists && rank < prev {
			t.Fatalf("calc %d frame %d sys %d: phase %q after rank %d",
				ev.Proc, ev.Frame, ev.System, ev.Phase, prev)
		}
		last[k] = rank
		if seen[k] == nil {
			seen[k] = map[string]bool{}
		}
		seen[k][ev.Phase] = true
	}
	// Every calculator must have hit the mandatory phases each frame.
	for k, phases := range seen {
		for _, mandatory := range []string{"addition", "calculus", "exchange", "render-send", "new-dims"} {
			if !phases[mandatory] {
				t.Errorf("calc %d frame %d sys %d missing phase %q", k.proc, k.frame, k.sys, mandatory)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no calculator events traced")
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
