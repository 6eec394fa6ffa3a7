package core

import (
	"fmt"

	"pscluster/internal/actions"
	"pscluster/internal/bufpool"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
	"pscluster/internal/render"
)

// RunSequential executes the scenario in a single process on one node —
// the baseline the paper's speedups divide by ("we used the sequential
// execution time as the comparison measure of processing power", §4).
// The virtual time is the total work divided by the node's rate under
// the given compiler.
func RunSequential(scn Scenario, node cluster.NodeType, comp cluster.Compiler) (*Result, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	rate := node.Rate[comp]
	if rate <= 0 {
		return nil, fmt.Errorf("core: node %s has no rate for %s", node.Name, comp)
	}

	var clock cluster.Clock
	lo, hi := scn.SpaceInterval()

	stores := make([]*particle.ColumnStore, len(scn.Systems))
	ctxs := make([]*actions.Context, len(scn.Systems))
	for i := range scn.Systems {
		stores[i] = scn.newStore(lo, hi)
		ctxs[i] = &actions.Context{RNG: geom.NewRNG(scn.Systems[i].Seed), DT: scn.DT}
	}

	var fb *render.Framebuffer
	var cam render.Camera
	var created particle.Batch // one creating action's particles
	var wire particle.Batch    // reusable render-record decode scratch
	var storeScratch actions.StoreScratch
	if scn.Render.Rasterize {
		fb = render.NewFramebuffer(scn.Render.Width, scn.Render.Height)
		cam = defaultCamera(&scn)
		if err := ensureOutputDir(&scn); err != nil {
			return nil, err
		}
	}

	// The sequential engine runs the parallel engine's compiled run
	// programs: one pass per action, charged after the pass.
	plans := compilePlans(&scn)

	res := &Result{Frames: scn.Frames}
	if scn.CollectParticles {
		res.FinalParticles = make([][]particle.Particle, len(scn.Systems))
	}
	var events []Event
	emit := func(frame, sys int, phase string) {
		if scn.Trace {
			events = append(events, Event{Frame: frame, System: sys, Proc: 0, Phase: phase, T: clock.Now()})
		}
	}

	for frame := 0; frame < scn.Frames; frame++ {
		var frameSum uint64
		if fb != nil {
			fb.Clear()
		}
		for si := range scn.Systems {
			st := stores[si]
			ctx := ctxs[si]

			for ri := range plans[si] {
				r := &plans[si][ri]
				switch {
				case r.Create != nil:
					created.Clear()
					r.Create.GenerateInto(ctx, &created)
					clock.AdvanceWork(r.Create.Cost()*float64(created.Len())*scn.Ratio, rate)
					st.AddBatch(&created)
					emit(frame, si, "create")
				case r.Store != nil:
					clock.AdvanceWork(r.Store.ApplyStore(ctx, &storeScratch, st)*scn.Ratio, rate)
				case len(r.Acts) == 1:
					applyToSet(st, ctx, r.Acts[0])
					clock.AdvanceWork(r.Acts[0].Cost()*float64(st.Len())*scn.Ratio, rate)
				default:
					name := "nil"
					if r.Unknown != nil {
						name = r.Unknown.Name()
					}
					return nil, fmt.Errorf("core: system %d action %q has unknown shape", si, name)
				}
			}
			for _, pa := range scn.scriptedFor(frame, si) {
				applyToSet(st, ctxs[si], pa)
				clock.AdvanceWork(pa.Cost()*float64(st.Len())*scn.Ratio, rate)
			}
			st.RemoveDead()
			emit(frame, si, "calculus")

			// Render this system's particles. The batch buffer is pooled —
			// this engine is its own receiver, so it releases it.
			batch := encodeRenderSet(st)
			clock.AdvanceWork(scn.Render.CostPerParticle*float64(st.Len())*scn.Ratio, rate)
			if fb == nil {
				frameSum += hashRenderRecords(batch)
			} else {
				if err := decodeRenderColumnsInto(&wire, batch); err != nil {
					bufpool.Put(batch)
					return nil, err
				}
				fb.SplatColumns(cam, &wire)
			}
			bufpool.Put(batch)
			emit(frame, si, "render")
		}
		clock.AdvanceWork(scn.Render.FrameOverhead, rate)
		if fb != nil {
			frameSum = fb.Checksum()
			if err := maybeWriteFrame(&scn, frame, fb); err != nil {
				return nil, err
			}
		}
		res.FrameChecksums = append(res.FrameChecksums, frameSum)
		res.FrameTimes = append(res.FrameTimes, clock.Now())
	}

	if scn.CollectParticles {
		for si, st := range stores {
			ps := st.All()
			sortParticles(ps)
			res.FinalParticles[si] = ps
		}
	}
	res.Time = clock.Now()
	res.PerProcTime = []float64{clock.Now()}
	res.Events = events
	return res, nil
}

// defaultCamera frames the scenario's space (or the central portion of
// an infinite one) for the rasterizer: orthographic by default, or a
// pinhole pulled back along +Z when the scenario asks for perspective.
func defaultCamera(scn *Scenario) render.Camera {
	region := scn.Space
	if scn.Mode == InfiniteSpace || region.Size().Len2() == 0 {
		region = geom.Box(geom.V(-120, -120, -120), geom.V(120, 120, 120))
	}
	if scn.Render.Perspective {
		center := region.Min.Add(region.Max).Scale(0.5)
		ext := region.Size().Len()
		return render.PerspectiveCamera{
			Eye:  center.Add(geom.V(0, 0, 1.5*ext)),
			Look: center,
			Up:   geom.V(0, 1, 0),
			FOV:  1.0,
			W:    scn.Render.Width, H: scn.Render.Height,
		}
	}
	return render.OrthoCamera{Region: region, W: scn.Render.Width, H: scn.Render.Height}
}
