package core

import (
	"fmt"

	"pscluster/internal/actions"
	"pscluster/internal/domain"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// This file is the frame-program compiler. There is one program per
// process role — compileManager, compileCalc, compileImage — and it is
// written once, over system groups: a sysGroup is a run of consecutive
// particle systems whose Figure-2 phases execute together. The Schedule
// only picks the grouping. PerSystemSchedule walks the phase sequence
// once per system (one single-system group each); BatchedSchedule
// (§3.3) runs every phase once per frame for all systems together (one
// group), so the n² exchange messages, the balancing round-trips and
// the render sends are paid once per frame instead of once per system.
// The LB policy (lbpolicy.go) contributes the balancing steps of each
// group. Physics is identical either way — the schedules remain
// bit-equivalent.
//
// What a group hides is the wire format: whether its messages carry
// one system bare or several behind a count (pack/unpack,
// encodeBoundary/decodeBoundary), how its creating actions are cut into
// messages, and how its steps are tagged. Beyond the group's own
// methods the programs branch on the framing in exactly five places,
// each marked "seam" below and in lbpolicy.go; everything else is the
// same code for both schedules.

// sysGroup is the systems [lo, hi) of one pass through the phases.
// An unframed group is a single system whose payloads travel bare — the
// one slot is the message — and whose steps carry the system index. A
// framed group's messages carry one slot per system behind a count, and
// its steps cover all of them: tag -1.
type sysGroup struct {
	lo, hi int
	framed bool
}

// groups cuts nSys systems into the schedule's groups.
func (s Schedule) groups(nSys int) []sysGroup {
	if s == BatchedSchedule {
		return []sysGroup{{lo: 0, hi: nSys, framed: true}}
	}
	gs := make([]sysGroup, nSys)
	for si := range gs {
		gs[si] = sysGroup{lo: si, hi: si + 1}
	}
	return gs
}

// n is the number of systems in the group.
func (g sysGroup) n() int { return g.hi - g.lo }

// tag is the system tag of the group's spans.
func (g sysGroup) tag() int {
	if g.framed {
		return -1
	}
	return g.lo
}

// step builds one Figure-2 phase step of the group.
func (g sysGroup) step(phase string, run func() (bool, error)) step {
	return step{phase: phase, sys: g.tag(), run: run}
}

// createRef is one creating action of one system.
type createRef struct {
	si  int
	act actions.CreateAction
}

// creationMessages lists the group's creating actions in the sequential
// engine's (system, action) order, cut into the runs that travel in one
// manager→calculator message: every action on its own when unframed,
// all of them together when framed.
func (g sysGroup) creationMessages(scn *Scenario) [][]createRef {
	var msgs [][]createRef
	for si := g.lo; si < g.hi; si++ {
		for _, a := range scn.Systems[si].Actions {
			ca, ok := a.(actions.CreateAction)
			if !ok {
				continue
			}
			ref := createRef{si: si, act: ca}
			if g.framed && len(msgs) > 0 {
				msgs[0] = append(msgs[0], ref)
			} else {
				msgs = append(msgs, []createRef{ref})
			}
		}
	}
	return msgs
}

// pack frames per-system payload slots into one message, consuming
// them. Unframed, the single slot is the message itself — no copy, and
// the buffer's ownership passes through unchanged.
//
//pslint:pooled
func (g sysGroup) pack(slots [][]byte) []byte {
	if !g.framed {
		return slots[0]
	}
	return encodeCountedSeq(slots)
}

// unpack splits a message from pack back into its n slots, appended to
// dst[:0]; the slots alias b. size reads the width of the slot at the
// head of its argument. A framed message carrying any other number of
// slots is rejected.
func (g sysGroup) unpack(dst [][]byte, b []byte, n int, what string, size func([]byte) int) ([][]byte, error) {
	if !g.framed {
		return append(dst[:0], b), nil
	}
	slots, err := decodeCountedSeq(dst, b, what, size)
	if err != nil {
		return nil, err
	}
	if len(slots) != n {
		return nil, fmt.Errorf("core: %s carried %d slots, want %d", what, len(slots), n)
	}
	return slots, nil
}

// encodeBoundary packs a donor's new boundary for system si. A framed
// group's donors announce several systems' boundaries on one tag, so
// each carries its system index.
func (g sysGroup) encodeBoundary(si, edge int, value float64) []byte {
	if g.framed {
		return encodeBoundarySys(si, edge, value)
	}
	return encodeBoundary(edge, value)
}

// decodeBoundary is the inverse of encodeBoundary.
func (g sysGroup) decodeBoundary(b []byte) (si, edge int, value float64, err error) {
	if g.framed {
		return decodeBoundarySys(b)
	}
	edge, value, err = decodeBoundary(b)
	return g.lo, edge, value, err
}

// ---------------------------------------------------------------------
// The three frame programs
// ---------------------------------------------------------------------

func compileManager(m *managerProc, pol lbPolicy) []step {
	scn := m.scn
	var prog []step
	for _, g := range scn.Schedule.groups(len(scn.Systems)) {
		// Particle creation (§3.2.1): generate, then scatter by domain
		// with one message per calculator; the message itself is the
		// end-of-transmission notification. Generation follows the
		// sequential engine's (system, action) order.
		for _, refs := range g.creationMessages(scn) {
			prog = append(prog, g.step("particle-creation", always(func() error {
				for c := range m.calcSlots {
					m.calcSlots[c] = m.calcSlots[c][:0]
				}
				for _, ref := range refs {
					m.created.Clear()
					ref.act.GenerateInto(m.ctxs[ref.si], &m.created)
					m.ep.Clock().AdvanceWork(ref.act.Cost()*float64(m.created.Len())*scn.Ratio, m.rate)
					groupOwnerBatches(m.owned, &m.created, m.decomps[ref.si])
					for c := range m.owned {
						m.calcSlots[c] = append(m.calcSlots[c], m.owned[c].EncodeWire())
					}
				}
				for c := 0; c < m.nCalc; c++ {
					m.ep.SendScaled(rankCalc0+c, transport.TagParticles, g.pack(m.calcSlots[c]), scn.Ratio)
				}
				return nil
			})))
		}
		prog = append(prog, pol.managerSteps(m, g)...)
	}
	prog = append(prog, imbalanceStep(m))
	if !scn.PipelineFrames {
		prog = append(prog, frameBarrierStep(m))
	}
	return prog
}

func compileCalc(c *calcProc, pol lbPolicy) []step {
	scn := c.scn
	var prog []step
	for _, g := range scn.Schedule.groups(len(scn.Systems)) {
		prog = append(prog, c.computeSteps(g)...)
		prog = append(prog, g.step("exchange", always(func() error {
			// Seam 2: an unframed group opens its exchange with the scan
			// charge; a framed one paid it per system inside "calculus".
			// Moving it either way moves a span's completion time or the
			// float-addition order of the clock.
			if !g.framed {
				c.chargeExchangeScan(g.lo)
			}
			return c.ownerAllToAll(g, transport.TagParticles, &c.exchangedStored)
		})))
		prog = append(prog, pol.calcReportSteps(c, g)...)
		prog = append(prog, g.step("render-send", always(func() error { c.renderSend(g); return nil })))
		prog = append(prog, pol.calcBalanceSteps(c, g)...)
	}
	if !scn.PipelineFrames {
		prog = append(prog, frameBarrierStep(c))
	}
	return prog
}

// compileImage builds the image generator's frame program: gather and
// splat every render batch, bill the image, then deliver the frame (for
// synchronous frames, release everyone's barrier) and only then hash
// and write it.
func compileImage(g *imageGenProc) []step {
	scn := g.scn
	groups := scn.Schedule.groups(len(scn.Systems))
	return []step{
		{phase: "render-collect", sys: -1, run: always(func() error {
			if g.fb != nil {
				g.fb.Clear()
			}
			// Streamed ingest: each message is split and splatted as it
			// arrives. The fabric ops and the clock charges keep exactly
			// the historical sequence — all receives for the group, then
			// every blob's AdvanceWork in rank-then-system order — so
			// virtual times are untouched; only host work moved.
			for _, grp := range groups {
				for i, r := range g.calcRanks {
					msg := g.ep.Recv(r, transport.TagRenderBatch)
					g.gather[i] = msg
					blobs, err := grp.unpack(g.blobs[i], msg.Payload, grp.n(), "render batch", renderSlotSize)
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
			}
			return nil
		})},
		{phase: "image-generation", sys: -1, run: always(func() error {
			g.ep.Clock().AdvanceWork(scn.Render.FrameOverhead, g.rate)
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
			// The image is billed above; hashing it (and writing the PPM)
			// after the release runs while the calculators compute the next
			// frame. No clock moves, and the next Clear waits for it on this
			// goroutine.
			return g.generateImage()
		})},
	}
}

// ---------------------------------------------------------------------
// Calculator phase bodies
// ---------------------------------------------------------------------

// computeSteps lays out a group's compute phase: the compiled run
// program of Algorithm 1 (see compilePlans) with the manager's created
// particles added where the creating actions stand.
//
// Seam 1, the compute layout. An unframed group gets each creation in
// its own message, so every creation run closes an "addition" step (the
// runs since the previous creation execute first, then the manager's
// batch arrives) and the runs after the last creation fold into
// "calculus". A framed group's creations arrive combined, so it
// receives that one message up front and computes everything in a
// single "calculus" step.
func (c *calcProc) computeSteps(g sysGroup) []step {
	if g.framed {
		nCreated := 0
		for si := g.lo; si < g.hi; si++ {
			for ri := range c.plans[si] {
				if c.plans[si][ri].Create != nil {
					nCreated++
				}
			}
		}
		return []step{g.step("calculus", always(func() error { return c.computeFramed(g, nCreated) }))}
	}
	si := g.lo
	var prog []step
	var pending []actions.Run
	for _, r := range c.plans[si] {
		if r.Create == nil {
			pending = append(pending, r)
			continue
		}
		pre := pending
		pending = nil
		prog = append(prog, g.step("addition", always(func() error {
			if err := c.runRuns(si, pre); err != nil {
				return err
			}
			msg := c.ep.Recv(rankManager, transport.TagParticles)
			if err := c.addWire(si, msg.Payload); err != nil {
				return err
			}
			msg.Release()
			return nil
		})))
	}
	tail := pending
	return append(prog, g.step("calculus", always(func() error {
		if err := c.runRuns(si, tail); err != nil {
			return err
		}
		c.closeCompute(si)
		return nil
	})))
}

// computeFramed is a framed group's whole compute phase: one combined
// creation message (slots in (system, action) order), then every
// system's action list, script entries and exchange scan.
func (c *calcProc) computeFramed(g sysGroup, nCreated int) error {
	var createdMsg transport.Message
	var created [][]byte
	if nCreated > 0 {
		createdMsg = c.ep.Recv(rankManager, transport.TagParticles)
		var err error
		created, err = g.unpack(c.slots, createdMsg.Payload, nCreated, "creation", batchSlotSize)
		if err != nil {
			return err
		}
		c.slots = created
	}
	for si := g.lo; si < g.hi; si++ {
		for ri := range c.plans[si] {
			r := &c.plans[si][ri]
			if r.Create != nil {
				if err := c.addWire(si, created[0]); err != nil {
					return err
				}
				created = created[1:]
				continue
			}
			if err := c.applyRun(si, r); err != nil {
				return err
			}
		}
		c.closeCompute(si)
		c.chargeExchangeScan(si) // seam 2, the framed side
	}
	// The created slots alias the payload, so the message is released
	// only after every slot is decoded (no-op when nothing is created).
	createdMsg.Release()
	return nil
}

// addWire decodes one particle batch payload through the reusable
// columnar scratch and adds it to system si's store.
func (c *calcProc) addWire(si int, payload []byte) error {
	if err := c.wire.DecodeWireInto(payload); err != nil {
		return err
	}
	c.stores[si].AddBatch(&c.wire)
	return nil
}

// closeCompute ends system si's compute phase: the steering script's
// entries for this frame, and the pre-exchange load the report rescales
// from — the live particles only. The dead stay in the store until the
// exchange scan (partitionOut) drops them, so the store is compacted
// once per frame, not twice.
func (c *calcProc) closeCompute(si int) {
	c.runScripted(si)
	c.fs.oldLoad[si] = c.stores[si].Live()
}

// chargeExchangeScan charges the preparation of the structures for the
// exchange (Figure 2): out-of-domain detection, sub-domain re-binning
// and exchange packing, a per-particle cost the sequential baseline
// does not pay. It bills the live particles closeCompute counted.
func (c *calcProc) chargeExchangeScan(si int) {
	scn := c.scn
	scanWork := scn.ExchangeScanWork * float64(c.fs.oldLoad[si]) * scn.Ratio
	c.ep.Clock().AdvanceWork(scanWork, c.rate)
	c.fs.work[si] += scanWork
}

// applyRun executes one compiled run of system si — a store action or
// one per-particle action pass — advancing the clock and accumulating
// the frame's work for the load report. The clock is charged after the
// pass, in action-list order, as the sequential baseline charges it.
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
	case len(r.Acts) == 1:
		c.notePasses(applyToSet(st, c.ctxs[si], r.Acts[0]))
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
		c.notePasses(applyToSet(st, c.ctxs[si], pa))
		w := pa.Cost() * float64(st.Len()) * scn.Ratio
		c.ep.Clock().AdvanceWork(w, c.rate)
		c.fs.work[si] += w
	}
}

// compilePlans compiles every system's action list into its run program
// — shapes resolved, one run per action. Compiled once per run and
// reused every frame.
func compilePlans(scn *Scenario) [][]actions.Run {
	plans := make([][]actions.Run, len(scn.Systems))
	for si := range scn.Systems {
		plans[si] = actions.FusePlan(scn.Systems[si].Actions, false)
	}
	return plans
}

// ownerAllToAll is the owner-grouped all-to-all over a group's systems:
// every particle this calculator holds but no longer owns goes straight
// to its owner, one message per peer with a slot per system, empty
// batches doubling as end-of-transmission — every pair trades a
// message, so the round needs no orders to stay deadlock-free. It is
// the particle exchange of §3.2.4 (TagParticles, counted in
// exchangedStored) and the ownership migration after a geometry
// rebalance (TagLBParticles, counted in lbMovedStored). The particles
// sent are added to *moved.
func (c *calcProc) ownerAllToAll(g sysGroup, tag transport.Tag, moved *int) error {
	scn := c.scn
	for si := g.lo; si < g.hi; si++ {
		owned := c.owned[si]
		groupOwnerBatches(owned, c.partitionOut(si), c.decomps[si])
		if owned[c.idx].Len() > 0 {
			// Out-of-space particles clamp back to the outermost domains,
			// which may be our own.
			c.stores[si].AddBatch(&owned[c.idx])
		}
	}
	for p := 0; p < c.nCalc; p++ {
		if p == c.idx {
			continue
		}
		slots := c.slots[:0]
		for si := g.lo; si < g.hi; si++ {
			*moved += c.owned[si][p].Len()
			slots = append(slots, c.owned[si][p].EncodeWire())
		}
		c.slots = slots
		c.ep.SendScaled(rankCalc0+p, tag, g.pack(slots), scn.Ratio)
	}
	for _, msg := range c.ep.RecvFromEach(c.others, tag) {
		slots, err := g.unpack(c.slots, msg.Payload, g.n(), "particle exchange", batchSlotSize)
		if err != nil {
			return err
		}
		c.slots = slots
		for i, s := range slots {
			if err := c.addWire(g.lo+i, s); err != nil {
				return err
			}
		}
		msg.Release()
	}
	return nil
}

// partitionOut removes and returns the particles that left this
// calculator's domain, and drops the frame's dead in the same scan. The
// slab path keeps the historical axis-interval scan (bit-identical to
// the pre-strategy engine, including which side of a collapsed domain a
// particle leaves from); other decompositions test ownership directly,
// since their domains are not axis intervals.
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
// the LB steps already populated and never emits spans or traffic, so
// the recorded programs are unchanged.
func imbalanceStep(m *managerProc) step {
	return step{run: always(func() error { m.recordImbalance(); return nil })}
}

// renderSend ships the group's particles to the image generator, one
// blob per system: it overlaps the manager's evaluation ("while the
// manager evaluates the load balancing, the calculators send the
// particles to the image generator"). Billed at the scenario's
// per-particle render wire size, summed over the systems. The blobs
// come from the pool and are consumed by the pack; the slot slice is
// per-calculator scratch — the send allocates nothing at steady state.
func (c *calcProc) renderSend(g sysGroup) {
	scn := c.scn
	blobs := c.slots[:0]
	bill := 0
	if g.framed {
		bill = 4 // seam 3: the framed payload's slot count is billed too
	}
	for si := g.lo; si < g.hi; si++ {
		st := c.stores[si]
		blobs = append(blobs, encodeRenderSet(st))
		bill += 4 + int(float64(st.Len()*scn.Render.BytesPerParticle)*scn.Ratio)
	}
	c.slots = blobs
	payload := g.pack(blobs)
	if bill < len(payload) {
		bill = len(payload)
	}
	c.ep.SendSized(rankImageGen, transport.TagRenderBatch, payload, bill)
}

// generateImage closes the frame's image: checksum and (when asked)
// the PPM file.
func (g *imageGenProc) generateImage() error {
	if g.fb == nil {
		g.checksums = append(g.checksums, g.fs.frameSum)
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
// one render batch into the reusable scratch and splat it. Without a
// framebuffer it only checks the blob's header against its length, so
// chargeBlob never bills or hashes a malformed one. No clock or hash
// state is touched — chargeBlob does the model-visible half.
func (g *imageGenProc) splatBlob(blob []byte) error {
	if g.fb == nil {
		_, err := renderBatchLen(blob)
		return err
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
// and their order are those of an Apply loop in store order. It
// returns the non-empty bins and the particles the pass touched; the
// callers charge Cost×len×Ratio after the pass.
func applyToSet(st *particle.ColumnStore, ctx *actions.Context, act actions.ParticleAction) (bins, particles int) {
	st.EachBatch(func(b *particle.Batch) {
		actions.ApplyToBatch(ctx, act, b)
		bins++
		particles += b.Len()
	})
	return bins, particles
}

// notePasses adds one per-particle pass to the calculator's
// pscluster_compute_{bin,particle}_passes_total counts.
func (c *calcProc) notePasses(bins, particles int) {
	c.binPasses += bins
	c.particlePasses += particles
}
