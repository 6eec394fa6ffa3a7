package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
	"pscluster/internal/obs"
	"pscluster/internal/particle"
)

// The tentpole invariant of the host-parallel compute plane: the worker
// width is invisible to the model. For every schedule × balancing mode,
// a run at 2 and at 8 workers must reproduce the 1-worker run exactly —
// checksums, particles, virtual times, traffic, trace events, and the
// full profiled output (events + metrics snapshot) byte for byte.
func TestHostParallelBitNeutral(t *testing.T) {
	for _, sched := range []Schedule{PerSystemSchedule, BatchedSchedule} {
		for _, lb := range []LBMode{StaticLB, DynamicLB, DecentralizedLB} {
			if sched == BatchedSchedule && lb == DecentralizedLB {
				continue
			}
			t.Run(fmt.Sprintf("%v/%v", sched, lb), func(t *testing.T) {
				base := miniSnow(lb, InfiniteSpace)
				base.Schedule = sched
				base.Trace = true

				r1, p1, err := RunParallelProfiled(base, testCluster(4), 3)
				if err != nil {
					t.Fatal(err)
				}
				f2base := marshalF2(t, r1, p1)

				for _, workers := range []int{2, 8} {
					scn := base
					scn.Workers = workers
					rw, pw, err := RunParallelProfiled(scn, testCluster(4), 3)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, r1, rw)
					if r1.Time != rw.Time {
						t.Errorf("workers=%d virtual time: %v vs %v", workers, r1.Time, rw.Time)
					}
					if !reflect.DeepEqual(r1.PerProcTime, rw.PerProcTime) {
						t.Errorf("workers=%d per-proc times diverge", workers)
					}
					if r1.MsgsSent != rw.MsgsSent || r1.BytesSent != rw.BytesSent ||
						r1.MsgsRecv != rw.MsgsRecv || r1.BytesRecv != rw.BytesRecv {
						t.Errorf("workers=%d traffic diverges", workers)
					}
					if !reflect.DeepEqual(r1.CalcLoads, rw.CalcLoads) {
						t.Errorf("workers=%d calc loads diverge", workers)
					}
					if !reflect.DeepEqual(r1.Events, rw.Events) {
						t.Errorf("workers=%d trace events diverge (%d vs %d)",
							workers, len(r1.Events), len(rw.Events))
					}
					if f2 := marshalF2(t, rw, pw); !bytes.Equal(f2base, f2) {
						t.Errorf("workers=%d profiled F2 output diverges from workers=1", workers)
					}
				}
			})
		}
	}
}

// marshalF2 renders a run the way cmd/psbench's F2 JSON embeds it:
// trace events plus the full metrics snapshot. Byte equality here means
// the benchmark artifacts cannot tell worker widths apart.
func marshalF2(t *testing.T, res *Result, prof *obs.Profile) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Events  []Event      `json:"events"`
		Metrics obs.Snapshot `json:"metrics"`
	}{res.Events, prof.Registry.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The sequential engine honors the same width invariance.
func TestHostParallelBitNeutralSequential(t *testing.T) {
	base := miniSnow(StaticLB, FiniteSpace)
	base.Trace = true
	r1, err := RunSequential(base, cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		scn := base
		scn.Workers = workers
		rw, err := RunSequential(scn, cluster.TypeB, cluster.GCC)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, r1, rw)
		if r1.Time != rw.Time {
			t.Errorf("workers=%d virtual time: %v vs %v", workers, r1.Time, rw.Time)
		}
		if !reflect.DeepEqual(r1.Events, rw.Events) {
			t.Errorf("workers=%d trace events diverge", workers)
		}
	}
}

// The worker pool itself: static striding must partition indices
// deterministically and completely, at any width, including widths
// above the index count.
func TestWorkerPoolRunCoversAllIndices(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8, 33} {
		pool := newWorkerPool(width)
		const n = 20
		var mu [n]int32
		slots := make([]int, n)
		pool.run(n, func(i, slot int) {
			mu[i]++
			slots[i] = slot
		})
		pool.Close()
		for i := range mu {
			if mu[i] != 1 {
				t.Fatalf("width %d: index %d visited %d times", width, i, mu[i])
			}
		}
		// Static striding: slot is i mod effective width.
		eff := width
		if eff > n {
			eff = n
		}
		if eff > 1 {
			for i := range slots {
				if slots[i] != i%eff {
					t.Fatalf("width %d: index %d ran on slot %d, want %d", width, i, slots[i], i%eff)
				}
			}
		}
	}
}

// Aggregate worker statistics are width-independent: the same bins and
// particles are counted no matter how they are partitioned.
func TestWorkerPoolTotalsWidthIndependent(t *testing.T) {
	st := particle.NewColumnStore(geom.AxisX, -50, 50, 16)
	rng := geom.NewRNG(7)
	for i := 0; i < 500; i++ {
		st.Add(particle.Particle{Pos: geom.V(rng.Float64()*100-50, 0, 0)})
	}
	ctx := &actions.Context{DT: 0.1}
	grav := &actions.Gravity{G: geom.V(0, -9.8, 0)}

	var wantBins, wantParts int
	for wi, width := range []int{1, 2, 4, 8} {
		pool := newWorkerPool(width)
		applyToSet(st, ctx, grav, pool)
		bins, parts := pool.totals()
		pool.Close()
		if wi == 0 {
			wantBins, wantParts = bins, parts
			if bins == 0 || parts != 500 {
				t.Fatalf("baseline totals: %d bins, %d particles", bins, parts)
			}
			continue
		}
		if bins != wantBins || parts != wantParts {
			t.Errorf("width %d totals (%d, %d) differ from width 1 (%d, %d)",
				width, bins, parts, wantBins, wantParts)
		}
	}
}

// BenchmarkWorkerScaling measures one Gravity+Damping+Move fused pass
// over a binned store at several pool widths.
func BenchmarkWorkerScaling(b *testing.B) {
	acts := []actions.Action{
		&actions.Gravity{G: geom.V(0, -9.8, 0)},
		&actions.Damping{Coeff: 0.1},
		&actions.Move{},
	}
	runs := actions.FusePlan(acts, true)
	if len(runs) != 1 || runs[0].Fused == nil {
		b.Fatal("expected one fused run")
	}
	k := runs[0].Fused
	ctx := &actions.Context{DT: 0.01}

	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", width), func(b *testing.B) {
			st := particle.NewColumnStore(geom.AxisX, -100, 100, 64)
			rng := geom.NewRNG(11)
			for i := 0; i < 20000; i++ {
				st.Add(particle.Particle{
					Pos: geom.V(rng.Float64()*200-100, rng.Float64(), 0),
					Vel: geom.V(0, -1, 0),
				})
			}
			pool := newWorkerPool(width)
			defer pool.Close()
			b.SetBytes(int64(st.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				applyKernelToSet(st, ctx, k, pool)
			}
		})
	}
}
