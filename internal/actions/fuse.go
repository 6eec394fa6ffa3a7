package actions

import "pscluster/internal/particle"

// Action programs: the engines compile each system's action list once
// per run into a slice of runs, one run per action, and execute that
// slice every frame. Every per-particle action is its own pass over
// the store, through ApplyToBatch — the calculator applies each action
// of the list to all of its particles in turn (Algorithm 1).

// Kernel is the signature of a single-pass columnar kernel over a batch.
// No run carries one; the type stays only because bench/psperf, a
// module of its own, still names it.
type Kernel func(ctx *Context, b *particle.Batch)

// Run is one step of a compiled action program. Exactly one of the
// shapes is set: Create (a creation slot the engines fill from the
// manager's scatter), Store (an inter-particle action), Acts (exactly
// one per-particle action), or Unknown (an action of no recognized
// shape, reported by the engines as an error).
type Run struct {
	Create CreateAction
	Store  StoreAction
	Acts   []ParticleAction
	// Fused is always nil. The field stays only because bench/psperf
	// still tests it.
	Fused   Kernel
	Unknown Action
}

// FusePlan compiles an action list into one run per action, in list
// order. The shape precedence (Create > Store > ParticleAction >
// Unknown) matches the engines' historical type switches, so a compiled
// program executes the same shapes in the same order as the per-action
// loops it replaces. fuse is ignored; the parameter stays only because
// bench/psperf still passes it.
func FusePlan(acts []Action, fuse bool) []Run {
	runs := make([]Run, len(acts))
	for i, a := range acts {
		switch a := a.(type) {
		case CreateAction:
			runs[i].Create = a
		case StoreAction:
			runs[i].Store = a
		case ParticleAction:
			runs[i].Acts = []ParticleAction{a}
		default:
			runs[i].Unknown = a
		}
	}
	return runs
}
