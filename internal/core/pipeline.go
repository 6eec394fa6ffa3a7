package core

import (
	"pscluster/internal/obs"
	"pscluster/internal/transport"
)

// This file is the engine's step runner. A parallel run is no longer a
// set of hand-written frame loops: each process role compiles its frame
// once — a flat []step program compiled over the Schedule's system
// groups, with the LBPolicy's steps per group — and the runner executes
// that program every frame,
// emitting the Figure-2 observability spans itself.
// Step bodies only move particles, advance clocks and exchange
// messages; where a phase begins and ends is the runner's concern.

// step is one named phase of Figure 2 executed by one process. The
// runner invokes run and, when it reports work done, closes the phase:
// it records the obs span (named phase, tagged sys). A step with an
// empty phase is glue — it runs but never emits.
type step struct {
	phase string // obs span name; "" for span-less glue steps
	sys   int    // span system tag (-1 when the phase covers all systems)
	run   func() (emit bool, err error)
}

// always wraps a step body that emits unconditionally.
func always(fn func() error) func() (bool, error) {
	return func() (bool, error) { return true, fn() }
}

// proc is the runner's view of a process role: the scenario it runs,
// its endpoint (clock + transport) and its recorder (nil when
// unprofiled).
type proc interface {
	scenario() *Scenario
	endpoint() transport.Fabric
	recorder() *obs.Recorder
	rank() int
	// beginFrame resets the role's per-frame scratch state.
	beginFrame(frame int)
	// annotateLive fills the role-specific status fields of a live
	// FrameRecord (manager: LB state; calculator: stored particles;
	// image generator: frames delivered). Only called when a live
	// telemetry sink is attached.
	annotateLive(*obs.FrameRecord)
}

// runProgram drives one process for the whole run: per frame it opens
// the recorder frame, resets the role's frame state, executes every
// step of the compiled program and emits each step's span at the
// step's completion clock. When a live telemetry sink is
// attached to the recorder, the closed frame is snapshotted and
// published — after EndFrame, off the virtual clock, so a served run
// stays bit-identical to an unserved one.
func runProgram(p proc, prog []step) error {
	scn := p.scenario()
	ep := p.endpoint()
	rec := p.recorder()
	for frame := 0; frame < scn.Frames; frame++ {
		// Correlation stamping is unconditional: outbound CorrIDs are a
		// pure function of (frame, rank, send order), observed or not.
		ep.SetFrame(frame)
		rec.BeginFrame(frame, ep.Clock().Now())

		p.beginFrame(frame)
		for i := range prog {
			s := &prog[i]
			emit, err := s.run()
			if err != nil {
				return err // the run aborts and its profile is discarded
			}
			if !emit || s.phase == "" {
				continue
			}
			rec.Phase(s.sys, s.phase, ep.Clock().Now())
		}
		rec.EndFrame(ep.Clock().Now())
		if rec.LiveEnabled() {
			fr := rec.SnapshotFrame(ep.Clock().Now())
			fr.Queue = ep.QueueDepth()
			p.annotateLive(&fr)
			rec.Publish(fr)
		}
	}
	return nil
}

// frameBarrierStep is the synchronous-frame wait shared by the manager
// and every calculator: Algorithm 1 ends each frame at image
// generation, so everyone blocks on the image generator's frame-done
// marker. PipelineFrames removes the barrier (the compilers then omit
// this step).
func frameBarrierStep(p proc) step {
	return step{phase: "frame-barrier", sys: -1, run: always(func() error {
		p.endpoint().Recv(rankImageGen, transport.TagFrameDone)
		return nil
	})}
}
