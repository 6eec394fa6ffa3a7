package main

import (
	"fmt"
	"time"

	"pscluster"
	"pscluster/internal/actions"
)

// The traced pass, parent side. End-to-end figures come from untraced
// runs; this pass makes the per-layer ones. Every comparison is between
// fresh child processes, so heap state and GC history never differ
// between the sides:
//
//	plain      the untraced baseline (cpu_ms_per_frame to attribute, wall to compare)
//	served     RunParallelServed + the benchmark's FrameSink, then the layer drivers
//	profiled   RunParallelProfiled                      (parallel engines)
//	virtual    the same scenario on the virtual fabric  (TCP workloads)
//	nocollide  the scenario minus its store actions     (workloads that have one)

// hasStoreAction reports whether the spec's scenario runs an
// inter-particle action.
func hasStoreAction(scn *pscluster.Scenario) bool {
	for _, sys := range scn.Systems {
		for _, a := range sys.Actions {
			if a.Kind() == actions.KindStore {
				return true
			}
		}
	}
	return false
}

// dropStoreActions removes every inter-particle action from the
// scenario: the "without" side of collide-by-difference.
func dropStoreActions(scn *pscluster.Scenario) {
	for si := range scn.Systems {
		kept := scn.Systems[si].Actions[:0:0]
		for _, a := range scn.Systems[si].Actions {
			if a.Kind() != actions.KindStore {
				kept = append(kept, a)
			}
		}
		scn.Systems[si].Actions = kept
	}
	scn.GhostCollisions = false
}

// tracedPass runs one workload's traced pass and fills wr.PerLayer.
func (h *harness) tracedPass(wr *workloadReport) {
	w, spec, v := wr.w, wr.spec, wr.v
	r, err := decodeSpec(spec)
	if err != nil {
		wr.Errors = append(wr.Errors, err.Error())
		return
	}
	frames := r.scn.Frames
	timeout := h.runTimeout()

	// run spawns one child; verified children count toward the frames
	// attempted, and a failed child fails all of its frames.
	run := func(mode string, verify bool, timeout time.Duration) *ChildResult {
		res, _, err := h.spawn(mode, spec, timeout)
		if err != nil {
			wr.Errors = append(wr.Errors, err.Error())
			if verify {
				wr.Attempted += frames
				wr.Failed += frames
			}
			return nil
		}
		if verify {
			failed, verr := v.check(w, res.Checksums)
			wr.Attempted += frames
			wr.Failed += failed
			if verr != nil {
				wr.Errors = append(wr.Errors, fmt.Sprintf("%s child: %v", mode, verr))
			}
		}
		return &res
	}

	plain := run(modePlain, true, timeout)
	served := run(modeServed, true, 3*timeout)
	if plain == nil || served == nil {
		return
	}
	layer := served.Layer
	wr.spans = served.Spans
	f := float64(frames)
	cpuPerFrame := plain.CPUS * 1e3 / f

	if w.Engine != engineSequential {
		layer["obs.sink_overhead_pct"] = (served.WallS/plain.WallS - 1) * 100
		base := plain
		if w.Engine == engineTCP {
			if base = run(modeVirtual, true, timeout); base != nil {
				layer["transport.tcp_over_virtual_wall"] = plain.WallS / base.WallS
			}
		}
		if prof := run(modeProfiled, true, timeout); prof != nil && base != nil {
			layer["obs.profiled_overhead_pct"] = (prof.WallS/base.WallS - 1) * 100
		}
	}
	if hasStoreAction(&r.scn) {
		if without := run(modeNoCollide, false, timeout); without != nil {
			collide := max(0, (plain.CPUS-without.CPUS)*1e3/f)
			layer["actions.collide_ms_per_frame"] = collide
			layer["actions.busy_ms_per_frame"] += collide
		}
	}
	busy := layer["actions.busy_ms_per_frame"] + layer["particle.busy_ms_per_frame"] +
		layer["transport.busy_ms_per_frame"] + layer["render.busy_ms_per_frame"]
	layer["core.unattributed_ms_per_frame"] = cpuPerFrame - busy

	wr.PerLayer = map[string]float64{}
	for _, m := range perLayer {
		wr.PerLayer[m.Name] = layer[m.Name]
	}
	wr.TracedCPUms = cpuPerFrame
}
