package core

import (
	"sort"

	"pscluster/internal/particle"
)

// Result reports one engine run.
type Result struct {
	// Time is the virtual wall time of the run: the maximum final clock
	// over all processes (the image generator finishing the last frame).
	Time float64
	// PerProcTime holds each process's final virtual clock
	// (manager, image generator, calculators... for parallel runs;
	// a single entry for sequential ones).
	PerProcTime []float64

	Frames int
	// FrameChecksums is the render checksum of every frame.
	FrameChecksums []uint64
	// FrameTimes is the virtual time each frame's image was completed —
	// the animation's delivery schedule.
	FrameTimes []float64

	// FinalParticles is the end-of-run particle multiset per system,
	// sorted canonically; nil unless Scenario.CollectParticles.
	FinalParticles [][]particle.Particle

	// ExchangedParticles counts calculator→calculator end-of-frame
	// exchanges (the §5.1/§5.2 "particles that belong to another
	// calculator" metric), in represented (paper-scale) particles.
	ExchangedParticles int
	// ExchangedBytes is the billed volume of those exchanges.
	ExchangedBytes int
	// LBMoved counts particles moved by load-balancing orders
	// (represented scale).
	LBMoved int
	// LBRounds counts balancing rounds that produced at least one order.
	LBRounds int
	// FrameImbalance is the manager's per-frame max/mean ratio of the
	// calculator loads reported that frame (1.0 = perfect balance,
	// nCalc = everything on one rank). Recorded only on frames where
	// the balancing policy collected load reports (DLB and the geometry
	// rebalancing policies); nil under static balancing. Derived from
	// the reports the policy already received, so recording it adds no
	// traffic and perturbs nothing.
	FrameImbalance []float64

	// CalcLoads is the final per-calculator particle count, summed over
	// systems (stored scale); nil for sequential runs.
	CalcLoads []int

	// MsgsSent and BytesSent total the traffic of every process (billed
	// bytes); zero for sequential runs.
	MsgsSent  int
	BytesSent int
	// MsgsRecv and BytesRecv total the consumed receive-side traffic; in
	// a well-formed run they equal the send-side totals.
	MsgsRecv  int
	BytesRecv int
}

// sortParticles orders a particle slice canonically so multisets can be
// compared across engines.
func sortParticles(ps []particle.Particle) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := &ps[i], &ps[j]
		switch {
		case a.Pos.X != b.Pos.X:
			return a.Pos.X < b.Pos.X
		case a.Pos.Y != b.Pos.Y:
			return a.Pos.Y < b.Pos.Y
		case a.Pos.Z != b.Pos.Z:
			return a.Pos.Z < b.Pos.Z
		case a.Age != b.Age:
			return a.Age < b.Age
		case a.Rand != b.Rand:
			return a.Rand < b.Rand
		default:
			return a.Vel.Len2() < b.Vel.Len2()
		}
	})
}

// Speedup returns seq.Time / r.Time — the paper's metric.
func (r *Result) Speedup(seq *Result) float64 {
	if r.Time == 0 {
		return 0
	}
	return seq.Time / r.Time
}
