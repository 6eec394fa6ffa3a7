package main

import (
	"sort"
	"time"

	"pscluster"
	"pscluster/internal/core"
	"pscluster/internal/obs"
)

// The served child: the traced pass's run with the benchmark's own
// FrameSink attached, followed by the layer drivers. Everything it
// learns comes from the public profiled surface — the FrameRecords the
// sink is handed, the Profile RunParallelServed returns — and from
// timing calls into the layers' public functions (layers.go).

// stampSink is the benchmark's FrameSink: it stamps host time per
// (rank, frame) and keeps each calculator's stored-particle count. A
// rank only ever writes its own row, so no lock is needed.
type stampSink struct {
	epoch     time.Time
	stampNs   [][]int64 // [rank][frame] host ns since epoch at publish
	particles [][]int   // [rank][frame] FrameRecord.Particles
}

func newStampSink(ranks, frames int) *stampSink {
	s := &stampSink{epoch: time.Now(), stampNs: make([][]int64, ranks), particles: make([][]int, ranks)}
	for r := range s.stampNs {
		s.stampNs[r] = make([]int64, frames)
		s.particles[r] = make([]int, frames)
	}
	return s
}

// PublishFrame implements obs.FrameSink.
func (s *stampSink) PublishFrame(fr obs.FrameRecord) {
	if fr.Rank < 0 || fr.Rank >= len(s.stampNs) || fr.Frame < 0 || fr.Frame >= len(s.stampNs[fr.Rank]) {
		return
	}
	s.stampNs[fr.Rank][fr.Frame] = time.Since(s.epoch).Nanoseconds()
	s.particles[fr.Rank][fr.Frame] = fr.Particles
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs)-1) + 0.5)
	return xs[i]
}

// hostMetrics derives the core.* host-time metrics from the stamps.
func (s *stampSink) hostMetrics(layer map[string]float64) {
	const imageGen, calc0 = 1, 2
	var intervals []float64
	img := s.stampNs[imageGen]
	for f := 1; f < len(img); f++ {
		intervals = append(intervals, float64(img[f]-img[f-1])/1e6)
	}
	layer["core.frame_ms_p50"] = quantile(intervals, 0.50)
	layer["core.frame_ms_p95"] = quantile(intervals, 0.95)
	var skews []float64
	for f := range img {
		lo, hi := s.stampNs[calc0][f], s.stampNs[calc0][f]
		for r := calc0; r < len(s.stampNs); r++ {
			lo, hi = min(lo, s.stampNs[r][f]), max(hi, s.stampNs[r][f])
		}
		skews = append(skews, float64(hi-lo)/1e6)
	}
	layer["core.rank_skew_ms_p50"] = quantile(skews, 0.50)
}

// meanStored returns the mean over frames of the particles stored on
// all calculators together.
func (s *stampSink) meanStored() float64 {
	var total float64
	for _, row := range s.particles {
		for _, n := range row {
			total += float64(n)
		}
	}
	return total / float64(len(s.particles[0]))
}

// runServed is the served child's body.
func runServed(r *runnable, res *ChildResult) error {
	layer := map[string]float64{}
	tr := newTracer(r.spec.Workload)

	var (
		out   engineOut
		m     measured
		prof  *obs.Profile
		full  *pscluster.Result
		sink  *stampSink
		err   error
		ranks = core.NumRanks(r.spec.NCalc)
	)
	switch r.spec.Engine {
	case engineSequential:
		// No ranks, no sink, no profile: the sequential engine has
		// nothing to serve. The run still happens so the pass's
		// checksums are verified like any other.
		p, perr := prepare(r, modePlain)
		if perr != nil {
			return perr
		}
		tr.do("core.RunSequential", func() { out, m, err = timeEngine(p.engine) })
		if err != nil {
			return err
		}
	case engineTCP:
		// Host stamps come from the workload's own fabric; the Profile
		// (virtual-time accounting, identical on both fabrics) from a
		// second, virtual-fabric served run.
		fabs, ferr := tcpFabrics(r)
		if ferr != nil {
			return ferr
		}
		sink = newStampSink(ranks, r.scn.Frames)
		tr.do("core.RunNode+sink", func() {
			out, m, err = timeEngine(func() (engineOut, error) { return runTCP(r, fabs, sink) })
		})
		closeFabrics(fabs)
		if err != nil {
			return err
		}
		tr.do("core.RunParallelServed(virtual)", func() {
			full, prof, err = core.RunParallelServed(r.scn, r.cluster, r.spec.NCalc, newStampSink(ranks, r.scn.Frames))
		})
		if err != nil {
			return err
		}
	default:
		sink = newStampSink(ranks, r.scn.Frames)
		tr.do("core.RunParallelServed", func() {
			out, m, err = timeEngine(func() (engineOut, error) {
				var rerr error
				full, prof, rerr = core.RunParallelServed(r.scn, r.cluster, r.spec.NCalc, sink)
				return fromResult(full, rerr)
			})
		})
		if err != nil {
			return err
		}
	}
	fillResult(res, out, m)

	counts := frameCounts{frames: float64(r.scn.Frames)}
	if sink != nil {
		sink.hostMetrics(layer)
		counts.stored = sink.meanStored()
	}
	if prof != nil {
		profileMetrics(r, full, prof, layer, &counts)
	}
	if err := runLayerDrivers(r, tr, layer, &counts); err != nil {
		return err
	}
	res.Layer, res.Spans = layer, tr.spans
	return nil
}
