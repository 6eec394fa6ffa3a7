package core

import (
	"fmt"

	"pscluster/internal/actions"
	"pscluster/internal/domain"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
	"pscluster/internal/render"
	"pscluster/internal/transport"
)

// This file holds the Schedule strategies: how the phases of Figure 2
// are laid out across the particle systems of one frame. A schedulePlan
// compiles each role's frame into a []step program for the runner in
// pipeline.go; the LB policy (lbpolicy.go) contributes the balancing
// steps. PerSystemSchedule walks the full phase sequence once per
// system; BatchedSchedule (§3.3) runs every phase once per frame for
// all systems together, so the n² exchange messages, the balancing
// round-trips and the render sends are paid once per frame instead of
// once per system. Physics is identical either way — the schedules
// remain bit-equivalent.

// schedulePlan compiles one frame's step program per process role.
type schedulePlan interface {
	compileManager(m *managerProc, pol lbPolicy) []step
	compileCalc(c *calcProc, pol lbPolicy) []step
	compileImage(g *imageGenProc) []step
}

// plan returns the strategy implementing this schedule.
func (s Schedule) plan() schedulePlan {
	if s == BatchedSchedule {
		return batchedPlan{}
	}
	return perSystemPlan{}
}

// ---------------------------------------------------------------------
// Per-system schedule
// ---------------------------------------------------------------------

type perSystemPlan struct{}

func (perSystemPlan) compileManager(m *managerProc, pol lbPolicy) []step {
	scn := m.scn
	var prog []step
	for si := range scn.Systems {
		// Particle creation (§3.2.1): generate, then scatter by domain
		// with one batch per calculator; the batch itself is the
		// end-of-transmission notification. One step per creating
		// action, matching the sequential engine's action order.
		for _, a := range scn.Systems[si].Actions {
			ca, ok := a.(actions.CreateAction)
			if !ok {
				continue
			}
			cost := a.Cost()
			prog = append(prog, step{phase: "particle-creation", sys: si, traced: true,
				run: always(func() error {
					ps := ca.Generate(m.ctxs[si])
					m.ep.Clock().AdvanceWork(cost*float64(len(ps))*scn.Ratio, m.rate)
					groups := groupByOwner(ps, m.decomps[si], m.nCalc)
					for c := 0; c < m.nCalc; c++ {
						m.ep.SendScaled(rankCalc0+c, transport.TagParticles,
							particle.EncodeBatch(groups[c]), scn.Ratio)
					}
					return nil
				})})
		}
		prog = append(prog, pol.managerSystemSteps(m, si)...)
	}
	prog = append(prog, imbalanceStep(m))
	if !scn.PipelineFrames {
		prog = append(prog, frameBarrierStep(m))
	}
	return prog
}

func (perSystemPlan) compileCalc(c *calcProc, pol lbPolicy) []step {
	scn := c.scn
	var prog []step
	for si := range scn.Systems {
		// Compute phase: the compiled run program of Algorithm 1 (see
		// compilePlans). Each creation run closes an "addition" step (the
		// runs since the previous creation execute first, then the
		// manager's batch arrives); the runs after the last creation fold
		// into "calculus".
		var pending []actions.Run
		for _, r := range c.plans[si] {
			if r.Create == nil {
				pending = append(pending, r)
				continue
			}
			pre := pending
			pending = nil
			prog = append(prog, step{phase: "addition", sys: si, traced: true,
				run: always(func() error {
					if err := c.runRuns(si, pre); err != nil {
						return err
					}
					msg := c.ep.Recv(rankManager, transport.TagParticles)
					if err := c.wire.DecodeWireInto(msg.Payload); err != nil {
						return err
					}
					c.stores[si].AddBatch(&c.wire)
					msg.Release()
					return nil
				})})
		}
		tail := pending
		prog = append(prog, step{phase: "calculus", sys: si, traced: true,
			run: always(func() error {
				if err := c.runRuns(si, tail); err != nil {
					return err
				}
				c.runScripted(si)
				st := c.stores[si]
				st.RemoveDead()
				c.fs.oldLoad[si] = st.Len()
				return nil
			})})
		prog = append(prog, step{phase: "exchange", sys: si, traced: true,
			run: always(func() error { return c.exchangeSystem(si) })})
		prog = append(prog, pol.calcReportSteps(c, si)...)
		prog = append(prog, step{phase: "render-send", sys: si, traced: true,
			run: always(func() error { c.renderSend(si); return nil })})
		prog = append(prog, pol.calcBalanceSteps(c, si)...)
	}
	if !scn.PipelineFrames {
		prog = append(prog, frameBarrierStep(c))
	}
	return prog
}

func (perSystemPlan) compileImage(g *imageGenProc) []step {
	return imageSteps(g, func() error {
		// Streamed ingest: each batch is decoded and handed to the splat
		// workers as it arrives, overlapping splatting with the remaining
		// gathers. The fabric ops and the clock charges keep exactly the
		// historical sequence — all receives for the system, then every
		// blob's AdvanceWork in rank order — so virtual times are
		// untouched; only host work moved.
		for range g.scn.Systems {
			for i, r := range g.calcRanks {
				msg := g.ep.Recv(r, transport.TagRenderBatch)
				g.gather[i] = msg
				if err := g.splatBlob(msg.Payload); err != nil {
					return err
				}
			}
			for i := range g.gather {
				g.chargeBlob(g.gather[i].Payload)
				g.gather[i].Release()
			}
		}
		return nil
	})
}

// ---------------------------------------------------------------------
// Batched schedule (§3.3)
// ---------------------------------------------------------------------

type batchedPlan struct{}

func (batchedPlan) compileManager(m *managerProc, pol lbPolicy) []step {
	scn := m.scn
	// Creation: generate every system's new particles (in the same
	// (system, action) order as the sequential engine) and scatter one
	// combined message per calculator.
	prog := []step{{phase: "particle-creation", sys: -1, run: func() (bool, error) {
		perCalc := make([][][]particle.Particle, m.nCalc)
		slots := 0
		for si := range scn.Systems {
			for _, a := range scn.Systems[si].Actions {
				ca, ok := a.(actions.CreateAction)
				if !ok {
					continue
				}
				ps := ca.Generate(m.ctxs[si])
				m.ep.Clock().AdvanceWork(a.Cost()*float64(len(ps))*scn.Ratio, m.rate)
				groups := groupByOwner(ps, m.decomps[si], m.nCalc)
				for c := 0; c < m.nCalc; c++ {
					perCalc[c] = append(perCalc[c], groups[c])
				}
				slots++
			}
		}
		if slots == 0 {
			return false, nil
		}
		for c := 0; c < m.nCalc; c++ {
			m.ep.SendScaled(rankCalc0+c, transport.TagParticles,
				encodeMultiBatch(perCalc[c]), scn.Ratio)
		}
		return true, nil
	}}}
	prog = append(prog, pol.managerBatchSteps(m)...)
	prog = append(prog, imbalanceStep(m))
	if !scn.PipelineFrames {
		prog = append(prog, frameBarrierStep(m))
	}
	return prog
}

func (batchedPlan) compileCalc(c *calcProc, pol lbPolicy) []step {
	scn := c.scn
	hasCreate := false
	for si := range scn.Systems {
		for _, a := range scn.Systems[si].Actions {
			if a.Kind() == actions.KindCreate {
				hasCreate = true
			}
		}
	}
	prog := []step{
		{phase: "calculus", sys: -1,
			run: always(func() error { return c.batchedCompute(hasCreate) })},
		{phase: "exchange", sys: -1,
			run: always(func() error { return c.batchedExchange() })},
	}
	prog = append(prog, pol.calcBatchReportSteps(c)...)
	prog = append(prog, step{phase: "render-send", sys: -1,
		run: always(func() error { c.batchedRenderSend(); return nil })})
	prog = append(prog, pol.calcBatchBalanceSteps(c)...)
	if !scn.PipelineFrames {
		prog = append(prog, frameBarrierStep(c))
	}
	return prog
}

func (batchedPlan) compileImage(g *imageGenProc) []step {
	return imageSteps(g, func() error {
		// One combined message per calculator carries every system.
		// Streamed like the per-system plan: split and splat each
		// calculator's blobs on arrival, then charge everything in the
		// historical rank-then-system order before releasing.
		for i, r := range g.calcRanks {
			msg := g.ep.Recv(r, transport.TagRenderBatch)
			g.gather[i] = msg
			blobs, err := decodeMultiRenderInto(g.blobs[i], msg.Payload)
			if err != nil {
				return err
			}
			g.blobs[i] = blobs
			for _, blob := range blobs {
				if err := g.splatBlob(blob); err != nil {
					return err
				}
			}
		}
		for i := range g.calcRanks {
			for _, blob := range g.blobs[i] {
				g.chargeBlob(blob)
			}
			g.gather[i].Release()
		}
		return nil
	})
}

// ---------------------------------------------------------------------
// Calculator phase bodies shared by the plans
// ---------------------------------------------------------------------

// applyRun executes one compiled run of system si — a store action, a
// fused kernel, or a single per-particle action — advancing the clock
// and accumulating the frame's work for the load report. The clock is
// charged per source action, after the kernel, in action-list order:
// neither fusion nor the worker pool perturbs the sequential charge
// sequence.
func (c *calcProc) applyRun(si int, r *actions.Run) error {
	scn := c.scn
	st := c.stores[si]
	switch {
	case r.Store != nil:
		w, err := c.applyStoreAction(si, r.Store, c.ctxs[si])
		if err != nil {
			return err
		}
		w *= scn.Ratio
		c.ep.Clock().AdvanceWork(w, c.rate)
		c.fs.work[si] += w
	case r.Fused != nil:
		applyKernelToSet(st, c.ctxs[si], r.Fused, c.pool)
		for _, a := range r.Acts {
			w := a.Cost() * float64(st.Len()) * scn.Ratio
			c.ep.Clock().AdvanceWork(w, c.rate)
			c.fs.work[si] += w
		}
	case len(r.Acts) == 1:
		applyToSet(st, c.ctxs[si], r.Acts[0], c.pool)
		w := r.Acts[0].Cost() * float64(st.Len()) * scn.Ratio
		c.ep.Clock().AdvanceWork(w, c.rate)
		c.fs.work[si] += w
	default:
		name := "nil"
		if r.Unknown != nil {
			name = r.Unknown.Name()
		}
		return fmt.Errorf("core: system %d action %q has unknown shape", si, name)
	}
	return nil
}

func (c *calcProc) runRuns(si int, runs []actions.Run) error {
	for i := range runs {
		if err := c.applyRun(si, &runs[i]); err != nil {
			return err
		}
	}
	return nil
}

// runScripted applies the steering script entries due this frame.
func (c *calcProc) runScripted(si int) {
	scn := c.scn
	st := c.stores[si]
	for _, pa := range scn.scriptedFor(c.fs.frame, si) {
		applyToSet(st, c.ctxs[si], pa, c.pool)
		w := pa.Cost() * float64(st.Len()) * scn.Ratio
		c.ep.Clock().AdvanceWork(w, c.rate)
		c.fs.work[si] += w
	}
}

// compilePlans compiles every system's action list into its run program
// — shapes resolved, adjacent per-particle actions fused. Compiled once
// per run and reused every frame.
func compilePlans(scn *Scenario) [][]actions.Run {
	plans := make([][]actions.Run, len(scn.Systems))
	for si := range scn.Systems {
		plans[si] = actions.FusePlan(scn.Systems[si].Actions, true)
	}
	return plans
}

// exchangeSystem is the particle exchange of §3.2.4 for one system:
// out-of-domain particles go straight to their owner; one message per
// peer, empty batches doubling as end-of-transmission. It opens with
// the preparation of the structures (Figure 2): out-of-domain
// detection, sub-domain re-binning and exchange packing, a per-particle
// cost the sequential baseline does not pay.
func (c *calcProc) exchangeSystem(si int) error {
	scn := c.scn
	st := c.stores[si]
	scanWork := scn.ExchangeScanWork * float64(st.Len()) * scn.Ratio
	c.ep.Clock().AdvanceWork(scanWork, c.rate)
	c.fs.work[si] += scanWork

	out := c.partitionOut(si)
	groups := groupOwnerBatches(out, c.decomps[si], c.nCalc)
	if groups[c.idx].Len() > 0 {
		// Out-of-space particles clamp back to the outermost domains,
		// which may be our own.
		st.AddBatch(groups[c.idx])
	}
	for i := 0; i < c.nCalc; i++ {
		if i == c.idx {
			continue
		}
		c.exchangedStored += groups[i].Len()
		c.ep.SendScaled(rankCalc0+i, transport.TagParticles, groups[i].EncodeWire(), scn.Ratio)
	}
	for _, msg := range c.ep.RecvFromEach(c.others, transport.TagParticles) {
		if err := c.wire.DecodeWireInto(msg.Payload); err != nil {
			return err
		}
		st.AddBatch(&c.wire)
		msg.Release()
	}
	return nil
}

// partitionOut removes and returns the particles that left this
// calculator's domain. The slab path keeps the historical axis-interval
// scan (bit-identical to the pre-strategy engine, including which side
// of a collapsed domain a particle leaves from); other decompositions
// test ownership directly, since their domains are not axis intervals.
func (c *calcProc) partitionOut(si int) *particle.Batch {
	st := c.stores[si]
	d := c.decomps[si]
	if _, ok := d.(*domain.Table); ok {
		return st.PartitionBatch()
	}
	idx := c.idx
	return st.PartitionOwnedBatch(func(p geom.Vec3) bool { return d.OwnerOf(p) == idx })
}

// imbalanceStep closes the manager's per-frame imbalance record after
// the frame's balancing steps. A glue step (no phase): it reads state
// the LB steps already populated and never emits spans, events or
// traffic, so traced programs are unchanged.
func imbalanceStep(m *managerProc) step {
	return step{run: always(func() error { m.recordImbalance(); return nil })}
}

// renderSend ships one system's particles to the image generator: it
// overlaps the manager's evaluation ("while the manager evaluates the
// load balancing, the calculators send the particles to the image
// generator"). Billed at the scenario's per-particle render wire size.
func (c *calcProc) renderSend(si int) {
	scn := c.scn
	st := c.stores[si]
	payload := encodeRenderSet(st)
	bill := 4 + int(float64(st.Len()*scn.Render.BytesPerParticle)*scn.Ratio)
	if bill < len(payload) {
		bill = len(payload)
	}
	c.ep.SendSized(rankImageGen, transport.TagRenderBatch, payload, bill)
}

// batchedCompute is the batched schedule's whole compute phase: one
// combined creation message (slots in (system, action) order), then
// every system's action list, script entries and exchange scan.
func (c *calcProc) batchedCompute(hasCreate bool) error {
	scn := c.scn
	var createdMsg transport.Message
	var created [][]byte
	if hasCreate {
		createdMsg = c.ep.Recv(rankManager, transport.TagParticles)
		var err error
		created, err = splitMultiBatch(createdMsg.Payload)
		if err != nil {
			return err
		}
	}
	slot := 0
	for si := range scn.Systems {
		st := c.stores[si]
		for ri := range c.plans[si] {
			r := &c.plans[si][ri]
			if r.Create != nil {
				if slot >= len(created) {
					return fmt.Errorf("core: creation slot %d out of range", slot)
				}
				if err := c.wire.DecodeWireInto(created[slot]); err != nil {
					return err
				}
				st.AddBatch(&c.wire)
				slot++
				continue
			}
			if err := c.applyRun(si, r); err != nil {
				return err
			}
		}
		c.runScripted(si)
		st.RemoveDead()
		c.fs.oldLoad[si] = st.Len()
		scanWork := scn.ExchangeScanWork * float64(st.Len()) * scn.Ratio
		c.ep.Clock().AdvanceWork(scanWork, c.rate)
		c.fs.work[si] += scanWork
	}
	// The created slots alias the payload, so the message is released
	// only after every slot is decoded (no-op when hasCreate is false).
	createdMsg.Release()
	return nil
}

// batchedExchange is one combined exchange: per peer, a multi-batch
// with one slot per system.
func (c *calcProc) batchedExchange() error {
	scn := c.scn
	nSys := len(scn.Systems)
	perPeer := make([][]*particle.Batch, c.nCalc)
	for p := range perPeer {
		perPeer[p] = make([]*particle.Batch, nSys)
	}
	for si := range scn.Systems {
		st := c.stores[si]
		out := c.partitionOut(si)
		groups := groupOwnerBatches(out, c.decomps[si], c.nCalc)
		if groups[c.idx].Len() > 0 {
			st.AddBatch(groups[c.idx])
		}
		for p := 0; p < c.nCalc; p++ {
			if p != c.idx {
				perPeer[p][si] = groups[p]
				c.exchangedStored += groups[p].Len()
			}
		}
	}
	for p := 0; p < c.nCalc; p++ {
		if p == c.idx {
			continue
		}
		c.ep.SendScaled(rankCalc0+p, transport.TagParticles, encodeMultiWire(perPeer[p]), scn.Ratio)
	}
	for _, msg := range c.ep.RecvFromEach(c.others, transport.TagParticles) {
		slots, err := splitMultiBatch(msg.Payload)
		if err != nil {
			return err
		}
		if len(slots) != nSys {
			return fmt.Errorf("core: exchange carried %d systems, want %d", len(slots), nSys)
		}
		for si, s := range slots {
			if err := c.wire.DecodeWireInto(s); err != nil {
				return err
			}
			c.stores[si].AddBatch(&c.wire)
		}
		msg.Release()
	}
	return nil
}

// batchedRenderSend is one combined render send with one blob per
// system, billed as the sum of the per-system render wire sizes. The
// per-system blobs come from the pool and are consumed by the combine;
// the slot slice itself is per-calculator scratch — the whole send is
// allocation-free at steady state.
func (c *calcProc) batchedRenderSend() {
	scn := c.scn
	blobs := c.renderBlobs[:0]
	bill := 4
	for si := range scn.Systems {
		blobs = append(blobs, encodeRenderSet(c.stores[si]))
		bill += 4 + int(float64(c.stores[si].Len()*scn.Render.BytesPerParticle)*scn.Ratio)
	}
	c.renderBlobs = blobs
	payload := encodeMultiRender(blobs)
	if bill < len(payload) {
		bill = len(payload)
	}
	c.ep.SendSized(rankImageGen, transport.TagRenderBatch, payload, bill)
}

// ---------------------------------------------------------------------
// Image generator program
// ---------------------------------------------------------------------

// imageSteps builds the image generator's frame program around a
// schedule-specific collect body: gather and splat every render batch,
// generate the image, then deliver the frame (and, for synchronous
// frames, release everyone's barrier).
func imageSteps(g *imageGenProc, collect func() error) []step {
	scn := g.scn
	return []step{
		{phase: "render-collect", sys: -1, run: always(func() error {
			if err := g.beginFrameFB(); err != nil {
				return err
			}
			return collect()
		})},
		{phase: "image-generation", sys: -1, traced: true, run: always(func() error {
			g.ep.Clock().AdvanceWork(scn.Render.FrameOverhead, g.rate)
			if err := g.generateImage(); err != nil {
				return err
			}
			g.frameTimes = append(g.frameTimes, g.ep.Clock().Now())
			return nil
		})},
		{run: always(func() error {
			g.rec.FrameDelivered(g.ep.Clock().Now())
			if !scn.PipelineFrames {
				g.ep.Send(rankManager, transport.TagFrameDone, nil)
				for _, r := range g.calcRanks {
					g.ep.Send(r, transport.TagFrameDone, nil)
				}
			}
			return nil
		})},
	}
}

// beginFrameFB readies the framebuffer for a new frame. In overlapped
// mode the buffers alternate, so the incoming frame first waits out any
// finish job still rasterizing the buffer it is about to clear.
func (g *imageGenProc) beginFrameFB() error {
	if g.fb == nil {
		return nil
	}
	if g.overlap() {
		g.fbIdx ^= 1
		g.fb = g.fbs[g.fbIdx]
		if ch := g.finish[g.fbIdx]; ch != nil {
			g.finish[g.fbIdx] = nil
			if err := <-ch; err != nil {
				return err
			}
		}
	}
	g.fb.Clear()
	return nil
}

// generateImage closes the frame's image: checksum and (when asked)
// the PPM file. With a render plane the splat backlog is barriered
// first; in overlapped mode the checksum+write moves to the plane's
// finisher goroutine and the program goroutine sails on to collect the
// next frame — beginFrameFB joins the job before reusing its buffer,
// and run() drains the last frames' jobs.
func (g *imageGenProc) generateImage() error {
	if g.fb == nil {
		g.checksums = append(g.checksums, g.fs.frameSum)
		return nil
	}
	if g.plane != nil {
		g.plane.Barrier()
	}
	if g.overlap() {
		g.checksums = append(g.checksums, 0)
		dst := &g.checksums[len(g.checksums)-1]
		scn, frame, fb := g.scn, g.fs.frame, g.fb
		g.finish[g.fbIdx] = g.plane.FinishAsync(fb, func(fb *render.Framebuffer) error {
			*dst = fb.Checksum()
			return maybeWriteFrame(scn, frame, fb)
		})
		return nil
	}
	sum := g.fb.Checksum()
	if err := maybeWriteFrame(g.scn, g.fs.frame, g.fb); err != nil {
		return err
	}
	g.checksums = append(g.checksums, sum)
	return nil
}

// splatBlob is the host-side half of the historical ingestBlob: decode
// one render batch and splat it, either through the render plane (the
// workers splat their owned rows while this goroutine keeps gathering)
// or serially through the reusable decode scratch. No clock or hash
// state is touched — chargeBlob does the model-visible half.
func (g *imageGenProc) splatBlob(blob []byte) error {
	if g.fb == nil {
		return nil
	}
	if g.plane != nil {
		return g.plane.Ingest(g.fb, g.cam, blob, decodeRenderColumnsInto)
	}
	if err := decodeRenderColumnsInto(&g.wire, blob); err != nil {
		return err
	}
	g.fb.SplatColumns(g.cam, &g.wire)
	return nil
}

// chargeBlob advances the virtual clock (and, when not rasterizing,
// the order-independent frame hash) for one render batch — the exact
// charges ingestBlob made, in the same canonical order, so streaming
// the splats cannot move virtual time.
func (g *imageGenProc) chargeBlob(blob []byte) {
	scn := g.scn
	count := (len(blob) - 4) / renderRecordSize
	g.ep.Clock().AdvanceWork(scn.Render.CostPerParticle*float64(count)*scn.Ratio, g.rate)
	if g.fb == nil {
		g.fs.frameSum += hashRenderRecords(blob)
	}
}

// applyToSet runs one per-particle action over every bin batch of st:
// actions with a columnar kernel stream it, the rest go through
// ApplyToBatch's record adapter. Either way the per-particle operations
// and their order are those of an Apply loop in store order. With a
// multi-slot pool the bins fan out across the worker goroutines; bins
// are disjoint and the kernels touch only their own bin, so the result
// is bit-identical to the sequential pass.
//
//pslint:clock-ok every caller (applyRun, runScripted) charges Cost×len×Ratio right after the kernel
func applyToSet(st *particle.ColumnStore, ctx *actions.Context, act actions.ParticleAction, pool *workerPool) {
	if bins := pool.parallelBins(st); bins != nil {
		pool.runBins(bins, func(bi, slot int) {
			b := bins[bi]
			actions.ApplyToBatch(ctx, act, b)
			pool.note(slot, b.Len())
		})
		return
	}
	st.EachBatch(func(b *particle.Batch) {
		actions.ApplyToBatch(ctx, act, b)
		pool.note(0, b.Len())
	})
}

// applyKernelToSet is applyToSet for a fused kernel: one single-pass
// kernel standing for a chain of adjacent per-particle actions. The
// caller (applyRun) charges each fused action's cost after the pass.
func applyKernelToSet(st *particle.ColumnStore, ctx *actions.Context, k actions.Kernel, pool *workerPool) {
	if bins := pool.parallelBins(st); bins != nil {
		pool.runBins(bins, func(bi, slot int) {
			b := bins[bi]
			k(ctx, b)
			pool.note(slot, b.Len())
		})
		return
	}
	st.EachBatch(func(b *particle.Batch) {
		k(ctx, b)
		pool.note(0, b.Len())
	})
}
