package actions

import "pscluster/internal/particle"

// Kernel fusion: adjacent columnar kernels that stream disjoint (or
// identical) columns are collapsed into one single-pass kernel, so the
// hot per-frame chains — Gravity+Damping+Move, the kill/fade chain —
// touch each column once per frame instead of once per action.
//
// Fusion preserves bit-identity by construction: none of the fusable
// actions reads another particle's state, so running the fused
// per-particle operation sequence (gravity_i, damping_i, move_i) once
// per particle performs exactly the float operations, in exactly the
// per-particle order, of the sequential column passes (gravity over all
// i, then damping over all i, then move over all i). The engines always
// run the fused program; TestFusedKernelsMatchSequentialPasses holds
// every signature in fuseSigs to its sequential passes.

// Kernel is a fused columnar kernel: one pass over a batch applying
// several adjacent per-particle actions.
type Kernel func(ctx *Context, b *particle.Batch)

// Run is one step of a compiled action program. Exactly one of the
// shapes is set: Create (a creation slot the engines fill from the
// manager's scatter), Store (an inter-particle action), Acts (one or
// more per-particle actions — with Fused non-nil when a single-pass
// kernel covers them all), or Unknown (an action of no recognized
// shape, reported by the engines as an error).
type Run struct {
	Create  CreateAction
	Store   StoreAction
	Acts    []ParticleAction
	Fused   Kernel
	Unknown Action
}

// FusePlan compiles an action list into runs, greedily fusing maximal
// known chains of adjacent per-particle actions when fuse is true
// (fuse=false, one run per action, is the reference fused kernels are
// tested and measured against). The shape precedence (Create > Store >
// ParticleAction) matches the engines' historical type switches, so a
// compiled program executes the same shapes in the same order as the
// per-action loops it replaces.
func FusePlan(acts []Action, fuse bool) []Run {
	var runs []Run
	i := 0
	for i < len(acts) {
		if ca, ok := acts[i].(CreateAction); ok {
			runs = append(runs, Run{Create: ca})
			i++
			continue
		}
		if sa, ok := acts[i].(StoreAction); ok {
			runs = append(runs, Run{Store: sa})
			i++
			continue
		}
		pa, ok := acts[i].(ParticleAction)
		if !ok {
			runs = append(runs, Run{Unknown: acts[i]})
			i++
			continue
		}
		// Find the maximal stretch of plain per-particle actions, then
		// tile it with the longest matching fused signatures.
		j := i
		for j < len(acts) && isPlainParticle(acts[j]) {
			j++
		}
		for i < j {
			n, k := matchFused(acts[i:j], fuse)
			if k != nil {
				runs = append(runs, Run{Acts: particleSlice(acts[i : i+n]), Fused: k})
				i += n
				continue
			}
			pa = acts[i].(ParticleAction)
			runs = append(runs, Run{Acts: []ParticleAction{pa}})
			i++
		}
	}
	return runs
}

// isPlainParticle reports whether a is a per-particle action and
// nothing stronger (an action implementing Create or Store as well
// would be claimed by those shapes first).
func isPlainParticle(a Action) bool {
	if _, ok := a.(CreateAction); ok {
		return false
	}
	if _, ok := a.(StoreAction); ok {
		return false
	}
	_, ok := a.(ParticleAction)
	return ok
}

// particleSlice converts a run of plain per-particle actions.
func particleSlice(acts []Action) []ParticleAction {
	out := make([]ParticleAction, len(acts))
	for i, a := range acts {
		out[i] = a.(ParticleAction)
	}
	return out
}

// matchFused returns the length and kernel of the longest fused
// signature matching the head of acts, or (0, nil). Signatures match
// by action name and then by concrete type (a foreign action reusing a
// built-in name fails the type assertion and falls back to its own
// unfused run).
func matchFused(acts []Action, fuse bool) (int, Kernel) {
	if !fuse {
		return 0, nil
	}
	for _, sig := range fuseSigs {
		if len(sig.names) > len(acts) {
			continue
		}
		match := true
		for i, name := range sig.names {
			if acts[i].Name() != name {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if k := sig.make(acts); k != nil {
			return len(sig.names), k
		}
	}
	return 0, nil
}

// fuseSig is one fusable action-name chain and its kernel factory. The
// factory returns nil when the concrete types do not match the names.
type fuseSig struct {
	names []string
	make  func(acts []Action) Kernel
}

// fuseSigs is ordered longest chain first, so greedy tiling prefers the
// three-action chains over their two-action prefixes. The table is a
// slice, not a map: tiling must be deterministic.
var fuseSigs = []fuseSig{
	{[]string{"gravity", "damping", "move"}, makeGravityDampingMove},
	{[]string{"kill-old", "fade", "move"}, makeKillFadeMove},
	{[]string{"kill-old", "sink-below", "move"}, makeKillSinkMove},
	{[]string{"gravity", "damping"}, makeGravityDamping},
	{[]string{"kill-old", "fade"}, makeKillFade},
	{[]string{"kill-old", "sink-below"}, makeKillSink},
	{[]string{"damping", "move"}, makeDampingMove},
	{[]string{"fade", "move"}, makeFadeMove},
	{[]string{"sink-below", "move"}, makeSinkMove},
	{[]string{"gravity", "move"}, makeGravityMove},
}

// ---------------------------------------------------------------------
// Fused kernels. Each loop body is the concatenation of the matching
// ApplyBatch bodies, per particle and in action order; the loop
// invariants each pass hoisted (G·DT, the damping factor, the fade
// step) stay hoisted.
// ---------------------------------------------------------------------

func makeGravityDampingMove(acts []Action) Kernel {
	g, ok1 := acts[0].(*Gravity)
	d, ok2 := acts[1].(*Damping)
	_, ok3 := acts[2].(*Move)
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	k := &fusedGravityDampingMove{g: g, d: d}
	return k.apply
}

type fusedGravityDampingMove struct {
	g *Gravity
	d *Damping
}

func (k *fusedGravityDampingMove) apply(ctx *Context, b *particle.Batch) {
	g := k.g.G.Scale(ctx.DT)
	f := 1 - k.d.Coeff*ctx.DT
	if f < 0 {
		f = 0
	}
	for i := range b.Vel {
		v := b.Vel[i].Add(g).Scale(f)
		b.Vel[i] = v
		b.Pos[i] = b.Pos[i].Add(v.Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}

func makeGravityDamping(acts []Action) Kernel {
	g, ok1 := acts[0].(*Gravity)
	d, ok2 := acts[1].(*Damping)
	if !ok1 || !ok2 {
		return nil
	}
	k := &fusedGravityDamping{g: g, d: d}
	return k.apply
}

type fusedGravityDamping struct {
	g *Gravity
	d *Damping
}

func (k *fusedGravityDamping) apply(ctx *Context, b *particle.Batch) {
	g := k.g.G.Scale(ctx.DT)
	f := 1 - k.d.Coeff*ctx.DT
	if f < 0 {
		f = 0
	}
	for i := range b.Vel {
		b.Vel[i] = b.Vel[i].Add(g).Scale(f)
	}
}

func makeGravityMove(acts []Action) Kernel {
	g, ok1 := acts[0].(*Gravity)
	_, ok2 := acts[1].(*Move)
	if !ok1 || !ok2 {
		return nil
	}
	k := &fusedGravityMove{g: g}
	return k.apply
}

type fusedGravityMove struct{ g *Gravity }

func (k *fusedGravityMove) apply(ctx *Context, b *particle.Batch) {
	g := k.g.G.Scale(ctx.DT)
	for i := range b.Vel {
		v := b.Vel[i].Add(g)
		b.Vel[i] = v
		b.Pos[i] = b.Pos[i].Add(v.Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}

func makeDampingMove(acts []Action) Kernel {
	d, ok1 := acts[0].(*Damping)
	_, ok2 := acts[1].(*Move)
	if !ok1 || !ok2 {
		return nil
	}
	k := &fusedDampingMove{d: d}
	return k.apply
}

type fusedDampingMove struct{ d *Damping }

func (k *fusedDampingMove) apply(ctx *Context, b *particle.Batch) {
	f := 1 - k.d.Coeff*ctx.DT
	if f < 0 {
		f = 0
	}
	for i := range b.Vel {
		v := b.Vel[i].Scale(f)
		b.Vel[i] = v
		b.Pos[i] = b.Pos[i].Add(v.Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}

func makeKillFadeMove(acts []Action) Kernel {
	ko, ok1 := acts[0].(*KillOld)
	f, ok2 := acts[1].(*Fade)
	_, ok3 := acts[2].(*Move)
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	k := &fusedKillFadeMove{ko: ko, f: f}
	return k.apply
}

type fusedKillFadeMove struct {
	ko *KillOld
	f  *Fade
}

func (k *fusedKillFadeMove) apply(ctx *Context, b *particle.Batch) {
	step := k.f.Rate * ctx.DT
	for i := range b.Age {
		// Kill-old and sink tests read Age and Pos before Move updates
		// them, exactly as the sequential pass order does.
		if b.Age[i] > k.ko.MaxAge {
			b.Dead[i] = true
		}
		b.Alpha[i] -= step
		if b.Alpha[i] <= 0 {
			b.Alpha[i] = 0
			b.Dead[i] = true
		}
		b.Pos[i] = b.Pos[i].Add(b.Vel[i].Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}

func makeKillFade(acts []Action) Kernel {
	ko, ok1 := acts[0].(*KillOld)
	f, ok2 := acts[1].(*Fade)
	if !ok1 || !ok2 {
		return nil
	}
	k := &fusedKillFade{ko: ko, f: f}
	return k.apply
}

type fusedKillFade struct {
	ko *KillOld
	f  *Fade
}

func (k *fusedKillFade) apply(ctx *Context, b *particle.Batch) {
	step := k.f.Rate * ctx.DT
	for i := range b.Age {
		if b.Age[i] > k.ko.MaxAge {
			b.Dead[i] = true
		}
		b.Alpha[i] -= step
		if b.Alpha[i] <= 0 {
			b.Alpha[i] = 0
			b.Dead[i] = true
		}
	}
}

func makeKillSinkMove(acts []Action) Kernel {
	ko, ok1 := acts[0].(*KillOld)
	s, ok2 := acts[1].(*SinkBelow)
	_, ok3 := acts[2].(*Move)
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	k := &fusedKillSinkMove{ko: ko, s: s}
	return k.apply
}

type fusedKillSinkMove struct {
	ko *KillOld
	s  *SinkBelow
}

func (k *fusedKillSinkMove) apply(ctx *Context, b *particle.Batch) {
	for i := range b.Age {
		if b.Age[i] > k.ko.MaxAge {
			b.Dead[i] = true
		}
		if b.Pos[i].Component(k.s.Axis) < k.s.Threshold {
			b.Dead[i] = true
		}
		b.Pos[i] = b.Pos[i].Add(b.Vel[i].Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}

func makeKillSink(acts []Action) Kernel {
	ko, ok1 := acts[0].(*KillOld)
	s, ok2 := acts[1].(*SinkBelow)
	if !ok1 || !ok2 {
		return nil
	}
	k := &fusedKillSink{ko: ko, s: s}
	return k.apply
}

type fusedKillSink struct {
	ko *KillOld
	s  *SinkBelow
}

func (k *fusedKillSink) apply(_ *Context, b *particle.Batch) {
	for i := range b.Age {
		if b.Age[i] > k.ko.MaxAge {
			b.Dead[i] = true
		}
		if b.Pos[i].Component(k.s.Axis) < k.s.Threshold {
			b.Dead[i] = true
		}
	}
}

func makeFadeMove(acts []Action) Kernel {
	f, ok1 := acts[0].(*Fade)
	_, ok2 := acts[1].(*Move)
	if !ok1 || !ok2 {
		return nil
	}
	k := &fusedFadeMove{f: f}
	return k.apply
}

type fusedFadeMove struct{ f *Fade }

func (k *fusedFadeMove) apply(ctx *Context, b *particle.Batch) {
	step := k.f.Rate * ctx.DT
	for i := range b.Alpha {
		b.Alpha[i] -= step
		if b.Alpha[i] <= 0 {
			b.Alpha[i] = 0
			b.Dead[i] = true
		}
		b.Pos[i] = b.Pos[i].Add(b.Vel[i].Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}

func makeSinkMove(acts []Action) Kernel {
	s, ok1 := acts[0].(*SinkBelow)
	_, ok2 := acts[1].(*Move)
	if !ok1 || !ok2 {
		return nil
	}
	k := &fusedSinkMove{s: s}
	return k.apply
}

type fusedSinkMove struct{ s *SinkBelow }

func (k *fusedSinkMove) apply(ctx *Context, b *particle.Batch) {
	for i := range b.Pos {
		if b.Pos[i].Component(k.s.Axis) < k.s.Threshold {
			b.Dead[i] = true
		}
		b.Pos[i] = b.Pos[i].Add(b.Vel[i].Scale(ctx.DT))
		b.Age[i] += ctx.DT
	}
}
