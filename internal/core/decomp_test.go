package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"pscluster/internal/cluster"
	"pscluster/internal/geom"
	"pscluster/internal/obs"
)

// TestDecompSlabBitNeutral is the decomposition plane's acceptance
// gate: lifting the slab assumption behind the Decomposition interface
// must not change the slab engine by a single bit. A scenario that
// spells the default out (Decomp=slab, a non-default step bound —
// which slab never reads) must reproduce the zero-value scenario
// exactly across every schedule × balancing mode: frames, particles,
// virtual clocks, traffic, phase spans, and the profiled F2 output
// byte for byte.
func TestDecompSlabBitNeutral(t *testing.T) {
	for _, sched := range []Schedule{PerSystemSchedule, BatchedSchedule} {
		for _, lb := range []LBMode{StaticLB, DynamicLB, DecentralizedLB} {
			if sched == BatchedSchedule && lb == DecentralizedLB {
				continue
			}
			t.Run(fmt.Sprintf("%v/%v", sched, lb), func(t *testing.T) {
				base := miniSnow(lb, InfiniteSpace)
				base.Schedule = sched

				r1, p1, err := RunParallelProfiled(base, testCluster(4), 3)
				if err != nil {
					t.Fatal(err)
				}

				explicit := miniSnow(lb, InfiniteSpace)
				explicit.Schedule = sched
				explicit.Decomp = DecompSlab
				explicit.DecompStep = 0.3 // non-default; must be inert for slab

				r2, p2, err := RunParallelProfiled(explicit, testCluster(4), 3)
				if err != nil {
					t.Fatal(err)
				}

				compareResults(t, r1, r2)
				if r1.Time != r2.Time {
					t.Errorf("virtual time: %v vs %v", r1.Time, r2.Time)
				}
				if !reflect.DeepEqual(r1.PerProcTime, r2.PerProcTime) {
					t.Error("per-proc times diverge")
				}
				if r1.MsgsSent != r2.MsgsSent || r1.BytesSent != r2.BytesSent ||
					r1.MsgsRecv != r2.MsgsRecv || r1.BytesRecv != r2.BytesRecv {
					t.Errorf("wire traffic diverges: %d/%d bytes vs %d/%d",
						r1.BytesSent, r1.BytesRecv, r2.BytesSent, r2.BytesRecv)
				}
				if !reflect.DeepEqual(p1.Spans, p2.Spans) {
					t.Errorf("phase spans diverge (%d vs %d)", len(p1.Spans), len(p2.Spans))
				}
				if !reflect.DeepEqual(r1.FrameImbalance, r2.FrameImbalance) {
					t.Error("frame imbalance series diverges")
				}
				if !bytes.Equal(marshalF2(t, p1), marshalF2(t, p2)) {
					t.Error("profiled F2 output diverges from the zero-value scenario")
				}
			})
		}
	}
}

// marshalF2 renders a run the way cmd/psbench's F2 JSON builds it: the
// phase spans plus the full metrics snapshot. Byte equality here means
// the benchmark artifacts cannot tell the two runs apart.
func marshalF2(t *testing.T, prof *obs.Profile) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Spans   []obs.Span   `json:"spans"`
		Metrics obs.Snapshot `json:"metrics"`
	}{prof.Spans, prof.Registry.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The central correctness claim extends to the new strategies: for
// every decomposition × balancing × space mode and several calculator
// counts, the parallel engine reproduces the sequential particles and
// frames exactly. (The sequential engine has no decomposition at all,
// so this pins creation scatter, exchange, migration and render
// against an implementation that shares none of that code.)
func TestDecompSeqParallelEquivalence(t *testing.T) {
	for _, decomp := range []DecompMode{DecompGrid, DecompVoronoi} {
		for _, lb := range []LBMode{StaticLB, DynamicLB} {
			for _, mode := range []SpaceMode{FiniteSpace, InfiniteSpace} {
				for _, nCalc := range []int{1, 4, 6} {
					name := fmt.Sprintf("%v/%v/%v/%dcalc", decomp, lb, mode, nCalc)
					t.Run(name, func(t *testing.T) {
						scn := miniSnow(lb, mode)
						scn.Decomp = decomp
						seq, err := RunSequential(scn, cluster.TypeB, cluster.GCC)
						if err != nil {
							t.Fatal(err)
						}
						par, err := RunParallel(scn, testCluster(6), nCalc)
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, seq, par)
					})
				}
			}
		}
	}
}

// The batched schedule drives the combined report / broadcast /
// migration rounds; it must agree with the sequential engine too.
func TestDecompBatchedEquivalence(t *testing.T) {
	for _, decomp := range []DecompMode{DecompGrid, DecompVoronoi} {
		for _, lb := range []LBMode{StaticLB, DynamicLB} {
			t.Run(fmt.Sprintf("%v/%v", decomp, lb), func(t *testing.T) {
				scn := miniSnow(lb, InfiniteSpace)
				scn.Decomp = decomp
				scn.Schedule = BatchedSchedule
				seq, err := RunSequential(scn, cluster.TypeB, cluster.GCC)
				if err != nil {
					t.Fatal(err)
				}
				par, err := RunParallel(scn, testCluster(4), 4)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, seq, par)
			})
		}
	}
}

// Identical runs must agree bit for bit — the geometry rebalancing
// (cut shifts, site drift) is deterministic.
func TestDecompParallelDeterministic(t *testing.T) {
	for _, decomp := range []DecompMode{DecompGrid, DecompVoronoi} {
		t.Run(decomp.String(), func(t *testing.T) {
			scn := miniSnow(DynamicLB, InfiniteSpace)
			scn.Decomp = decomp
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
			if r1.LBMoved != r2.LBMoved || r1.LBRounds != r2.LBRounds ||
				r1.BytesSent != r2.BytesSent {
				t.Error("LB/traffic counters differ between identical runs")
			}
			if !reflect.DeepEqual(r1.FrameImbalance, r2.FrameImbalance) {
				t.Error("imbalance series differs between identical runs")
			}
		})
	}
}

// Every balancing policy that collects load reports must record the
// per-frame imbalance series; static balancing must not.
func TestDecompImbalanceRecorded(t *testing.T) {
	for _, decomp := range []DecompMode{DecompSlab, DecompGrid, DecompVoronoi} {
		t.Run(decomp.String(), func(t *testing.T) {
			scn := miniSnow(DynamicLB, InfiniteSpace)
			scn.Decomp = decomp
			res, err := RunParallel(scn, testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FrameImbalance) == 0 {
				t.Fatal("DLB run recorded no imbalance series")
			}
			for f, imb := range res.FrameImbalance {
				if imb < 1 || imb > float64(4) {
					t.Errorf("frame %d imbalance %g outside [1, nCalc]", f, imb)
				}
			}
		})
	}
	scn := miniSnow(StaticLB, InfiniteSpace)
	res, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameImbalance != nil {
		t.Error("SLB run recorded an imbalance series")
	}
}

// Geometry rebalancing must actually move particles under the IS
// pathology, and report its rounds.
func TestDecompRebalanceMovesParticles(t *testing.T) {
	for _, decomp := range []DecompMode{DecompGrid, DecompVoronoi} {
		t.Run(decomp.String(), func(t *testing.T) {
			scn := miniSnow(DynamicLB, InfiniteSpace)
			scn.Decomp = decomp
			res, err := RunParallel(scn, testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			if res.LBRounds == 0 {
				t.Error("no rebalancing rounds despite the IS pathology")
			}
			if res.LBMoved == 0 {
				t.Error("rebalancing never migrated a particle")
			}
		})
	}
}

// The ghost exchange generalizes to per-neighbor bands: an isolated
// pair straddling a grid column cut (or a Voronoi bisector) must
// collide exactly as in the sequential engine.
func TestDecompGhostCollisionsMatchSequential(t *testing.T) {
	for _, decomp := range []DecompMode{DecompGrid, DecompVoronoi} {
		t.Run(decomp.String(), func(t *testing.T) {
			scn := straddlePair()
			seq, err := RunSequential(scn, cluster.TypeB, cluster.GCC)
			if err != nil {
				t.Fatal(err)
			}
			par := straddlePair()
			par.Decomp = decomp
			par.GhostCollisions = true
			// 4 calculators: a 2×2 grid cuts at x=0, so the pair
			// straddles a column boundary; the 2×2 Voronoi lattice puts
			// the pair near the x=0 bisector.
			res, err := RunParallel(par, testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq.FinalParticles[0] {
				if seq.FinalParticles[0][i] != res.FinalParticles[0][i] {
					t.Fatalf("particle %d differs:\nseq %+v\npar %+v", i,
						seq.FinalParticles[0][i], res.FinalParticles[0][i])
				}
			}
		})
	}
}

func TestDecompValidateErrors(t *testing.T) {
	flat := miniSnow(StaticLB, FiniteSpace)
	flat.Space = geom.Box(geom.V(-60, 0, -10), geom.V(60, 0, 10)) // zero Y extent

	cases := map[string]Scenario{
		"grid+decentralized": func() Scenario {
			s := miniSnow(DecentralizedLB, FiniteSpace)
			s.Decomp = DecompGrid
			return s
		}(),
		"voronoi+decentralized": func() Scenario {
			s := miniSnow(DecentralizedLB, FiniteSpace)
			s.Decomp = DecompVoronoi
			return s
		}(),
		"step too large": func() Scenario {
			s := miniSnow(DynamicLB, FiniteSpace)
			s.Decomp = DecompGrid
			s.DecompStep = 0.7
			return s
		}(),
		"step negative": func() Scenario {
			s := miniSnow(DynamicLB, FiniteSpace)
			s.Decomp = DecompVoronoi
			s.DecompStep = -0.1
			return s
		}(),
		"flat cross axis": func() Scenario {
			s := flat
			s.Decomp = DecompGrid
			return s
		}(),
	}
	for name, scn := range cases {
		s := scn
		if err := s.Validate(); err == nil {
			t.Errorf("%s: scenario validated", name)
		}
	}
	// The same degenerate box is fine for slab (historical behavior).
	s := flat
	if err := s.Validate(); err != nil {
		t.Errorf("slab rejected a flat cross axis: %v", err)
	}
}

func TestDecompModeStrings(t *testing.T) {
	if DecompSlab.String() != "slab" || DecompGrid.String() != "grid" ||
		DecompVoronoi.String() != "voronoi" {
		t.Error("decomposition mode strings wrong")
	}
}
