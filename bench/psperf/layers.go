package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"pscluster"
	"pscluster/internal/actions"
	"pscluster/internal/bufpool"
	"pscluster/internal/domain"
	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
	"pscluster/internal/obs"
	"pscluster/internal/particle"
	"pscluster/internal/render"
	"pscluster/internal/scenario"
	"pscluster/internal/transport"
)

// Layer drivers. Each replays the workload's own data — its steady-state
// population, action lists, camera, decomposition and message sizes —
// through one layer's public functions and times the calls from outside.
// A driver yields unit costs; multiplied by the exact per-frame counts
// of the served run they give that layer's busy_ms_per_frame, so the
// rows can be summed against cpu_ms_per_frame.
//
// The binding list (README "Bindings") is the complete set of program
// symbols this file may touch.

// driverReps is how many times a driver repeats its measurement; the
// median repetition is reported.
const driverReps = 5

// frameCounts are the exact per-frame counts the unit costs multiply.
type frameCounts struct {
	frames    float64
	stored    float64 // particles stored on all calculators, mean over frames
	created   float64 // particles created per frame (sum of source rates)
	exchanged float64 // end-of-frame exchanges per frame, stored scale
	moved     float64 // balancing migrations per frame, stored scale
	passes    float64 // particle kernel applications per frame

	msgs          float64 // messages per frame
	renderMsgs    float64 // render-batch messages per frame
	renderBytes   float64 // physical render-batch bytes per frame
	medianPayload int     // median physical payload over all messages
	renderPayload int     // mean physical render-batch payload
	particleBatch int     // mean particles per particle-carrying message
}

// physicalBytes estimates a message's payload size from its billed
// size: particle-carrying tags are billed at payload × ratio, render
// batches at count × BytesPerParticle × ratio, everything else at par.
func physicalBytes(scn *pscluster.Scenario, tag string, billed int) int {
	switch tag {
	case transport.TagParticles.String(), transport.TagLBParticles.String(), transport.TagGhosts.String():
		return max(4, int(float64(billed)/scn.Ratio))
	case transport.TagRenderBatch.String():
		const renderRecord = 32 // core's compact render record
		count := float64(billed-4) / (float64(scn.Render.BytesPerParticle) * scn.Ratio)
		return 4 + int(count)*renderRecord
	}
	return billed
}

// profileMetrics fills the count and share metrics the served run's
// Profile and Result carry, and the frameCounts the drivers need.
func profileMetrics(r *runnable, res *pscluster.Result, prof *obs.Profile, layer map[string]float64, c *frameCounts) {
	scn := &r.scn
	snap := prof.Registry.Snapshot()
	perFrame := func(name string) float64 { return snap.SumCounter(name) / c.frames }

	c.passes = perFrame("pscluster_compute_particle_passes_total")
	layer["core.particle_passes_per_frame"] = c.passes
	layer["core.bin_passes_per_frame"] = perFrame("pscluster_compute_bin_passes_total")

	var comp, comm, idle float64
	for i := 0; i < r.spec.NCalc; i++ {
		a, b, w := prof.Timeline(2+i).Breakdown(0, scn.Frames)
		comp, comm, idle = comp+a, comm+b, idle+w
	}
	n := float64(r.spec.NCalc)
	layer["core.virtual_compute_share"] = comp / n
	layer["core.virtual_comm_share"] = comm / n
	layer["core.virtual_idle_share"] = idle / n

	c.exchanged = perFrame("pscluster_exchanged_particles_total") / scn.Ratio
	layer["particle.exchanged_per_frame"] = c.exchanged
	if c.stored > 0 {
		layer["particle.exchanged_share"] = c.exchanged / c.stored
	}

	evals := snap.SumCounter("pscluster_lb_evaluations_total")
	c.moved = perFrame("pscluster_lb_moved_particles_total") / scn.Ratio
	layer["loadbalance.evaluations_per_frame"] = evals / c.frames
	layer["loadbalance.orders_per_frame"] = perFrame("pscluster_lb_orders_total")
	layer["loadbalance.moved_per_frame"] = c.moved
	if evals > 0 {
		layer["loadbalance.useful_round_ratio"] = snap.SumCounter("pscluster_lb_rounds_total") / evals
	}

	layer["transport.recv_wait_virtual_s_per_frame"] = perFrame("pscluster_recv_wait_seconds_total")
	var sent, renderSent float64
	for _, m := range snap.Counters {
		if m.Name == "pscluster_bytes_sent_total" {
			sent += m.Value
			if m.Labels["tag"] == transport.TagRenderBatch.String() {
				renderSent += m.Value
			}
		}
	}
	if sent > 0 {
		layer["transport.render_bytes_share"] = renderSent / sent
	}
	layer["transport.wire_bytes_per_frame"] = float64(res.BytesSent) / c.frames
	layer["transport.msgs_per_frame"] = float64(res.MsgsSent) / c.frames

	layer["domain.imbalance_max"] = 1
	for _, x := range res.FrameImbalance {
		layer["domain.imbalance_max"] = max(layer["domain.imbalance_max"], x)
	}

	// Message-size histogram, send side only (each message once).
	var sizes []int
	var renderN, renderB, partN, partParticles int
	for _, m := range prof.Msgs {
		if !m.Send {
			continue
		}
		b := physicalBytes(scn, m.Tag, m.Bytes)
		sizes = append(sizes, b)
		switch m.Tag {
		case transport.TagRenderBatch.String():
			renderN++
			renderB += b
		case transport.TagParticles.String(), transport.TagLBParticles.String():
			partN++
			partParticles += (b - 4) / particle.WireSize
		}
	}
	sort.Ints(sizes)
	c.msgs = float64(len(sizes)) / c.frames
	c.renderMsgs = float64(renderN) / c.frames
	c.renderBytes = float64(renderB) / c.frames
	if len(sizes) > 0 {
		c.medianPayload = sizes[len(sizes)/2]
	}
	if renderN > 0 {
		c.renderPayload = renderB / renderN
	}
	if partN > 0 {
		c.particleBatch = partParticles / partN
	}
}

// drivers carries what every layer driver shares.
type drivers struct {
	r      *runnable
	tr     *tracer
	layer  map[string]float64
	counts *frameCounts
	// pop is the steady-state population per system, from a short
	// CollectParticles run.
	pop [][]particle.Particle
	n   int // total particles in pop
	// dec is the workload's initial decomposition; drivers that move
	// geometry work on a copy.
	dec domain.Decomposition
}

// blackhole keeps results the drivers compute only to time them from
// being optimised away.
var blackhole uint64

// timed runs fn driverReps times inside spans and returns the median
// duration. setup, when non-nil, runs before each repetition, untimed.
func (d *drivers) timed(name string, setup, fn func()) time.Duration {
	durs := make([]time.Duration, 0, driverReps)
	for i := 0; i < driverReps; i++ {
		if setup != nil {
			setup()
		}
		durs = append(durs, d.tr.do(name, fn))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
}

// mallocs returns the heap objects fn allocates.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func ns(d time.Duration, per int) float64 {
	if per <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(per)
}

// warmFrames is how many frames bring the scenario to its steady-state
// population: the longest particle lifetime plus a margin.
func warmFrames(scn *pscluster.Scenario) int {
	warm := 10.0
	for _, sys := range scn.Systems {
		for _, a := range sys.Actions {
			if k, ok := a.(*actions.KillOld); ok {
				warm = max(warm, k.MaxAge/scn.DT)
			}
		}
	}
	return min(int(warm)+2, scn.Frames)
}

func runLayerDrivers(r *runnable, tr *tracer, layer map[string]float64, c *frameCounts) error {
	d := &drivers{r: r, tr: tr, layer: layer, counts: c}

	// Steady-state population.
	warm := r.scn
	warm.Frames = warmFrames(&r.scn)
	warm.CollectParticles = true
	warm.Render.Rasterize = false
	var res *pscluster.Result
	var err error
	tr.do("population.RunSequential", func() { res, err = pscluster.RunSequential(warm, r.seqNode, r.comp) })
	if err != nil {
		return fmt.Errorf("population run: %w", err)
	}
	d.pop = res.FinalParticles
	for _, ps := range d.pop {
		d.n += len(ps)
	}
	if d.n == 0 {
		return fmt.Errorf("population run left no particles")
	}
	if c.stored == 0 {
		c.stored = float64(d.n)
	}
	for _, sys := range r.scn.Systems {
		for _, a := range sys.Actions {
			if src, ok := a.(*actions.Source); ok {
				c.created += float64(src.Rate)
			}
		}
	}
	if c.medianPayload == 0 {
		c.medianPayload = 64
	}
	if c.renderPayload == 0 {
		c.renderPayload = 4 + 32*d.n/max(1, r.spec.NCalc*len(r.scn.Systems))
	}
	if c.particleBatch == 0 {
		c.particleBatch = max(1, int(c.created)/max(1, r.spec.NCalc*len(r.scn.Systems)))
	}

	if d.dec, err = d.decomposition(); err != nil {
		return err
	}
	tr.do("layer.actions", d.actionsLayer)
	var derr error
	tr.do("layer.particle", func() { derr = d.particleLayer() })
	if derr != nil {
		return derr
	}
	tr.do("layer.domain", func() { derr = d.domainLayer() })
	if derr != nil {
		return derr
	}
	tr.do("layer.loadbalance", d.loadbalanceLayer)
	tr.do("layer.bufpool", d.bufpoolLayer)
	tr.do("layer.transport", func() { derr = d.transportLayer() })
	if derr != nil {
		return derr
	}
	tr.do("layer.render", d.renderLayer)
	tr.do("layer.setup", func() { derr = d.setupLayer() })
	return derr
}

// decomposition rebuilds the workload's initial decomposition the way
// the engine does for each system.
func (d *drivers) decomposition() (domain.Decomposition, error) {
	scn := &d.r.scn
	n := max(1, d.r.spec.NCalc)
	lo, hi := scn.SpaceInterval()
	cross := (scn.Axis + 1) % 3
	box := scn.SpaceBox()
	switch scn.Decomp {
	case pscluster.DecompGrid:
		return domain.NewGrid(scn.Axis, cross, lo, hi,
			box.Min.Component(cross), box.Max.Component(cross), n, scn.DecompStep)
	case pscluster.DecompVoronoi:
		ext := geom.V(box.Extent(scn.Axis), box.Extent(cross), 0)
		return domain.NewVoronoi(box, scn.Axis, cross, n, ext.Len()*scn.DecompStep)
	}
	return domain.NewEqual(scn.Axis, lo, hi, n)
}

// stores builds fresh per-(system, calculator) column stores holding
// the steady-state population, split by the decomposition as the
// engine's calculators hold it.
func (d *drivers) stores(dec domain.Decomposition) [][]*particle.ColumnStore {
	scn := &d.r.scn
	lo, hi := scn.SpaceInterval()
	out := make([][]*particle.ColumnStore, len(d.pop))
	for si, ps := range d.pop {
		out[si] = make([]*particle.ColumnStore, dec.N())
		groups := make([]particle.Batch, dec.N())
		for i := range ps {
			groups[dec.OwnerOf(ps[i].Pos)].Append(ps[i])
		}
		for ci := range out[si] {
			slo, shi := lo, hi
			if t, ok := dec.(*domain.Table); ok {
				slo, shi = t.Bounds(ci)
			}
			st := particle.NewColumnStore(scn.Axis, slo, shi, scn.Bins)
			st.AddBatch(&groups[ci])
			out[si][ci] = st
		}
	}
	return out
}

// actionsLayer times the workload's own action lists, compiled by
// FusePlan exactly as the engines compile them, over column-store bins.
func (d *drivers) actionsLayer() {
	scn := &d.r.scn
	dec := d.dec
	plans := make([][]actions.Run, len(scn.Systems))
	ctxs := make([]*actions.Context, len(scn.Systems))
	for si := range scn.Systems {
		plans[si] = actions.FusePlan(scn.Systems[si].Actions, true)
		ctxs[si] = &actions.Context{RNG: geom.NewRNG(scn.Systems[si].Seed), DT: scn.DT}
	}
	// Every workload's systems share one action list shape, so the
	// first plan gives the per-particle runs of all.
	runsPerParticle := 0
	for _, run := range plans[0] {
		if run.Fused != nil || len(run.Acts) == 1 {
			runsPerParticle++
		}
	}
	var sts [][]*particle.ColumnStore
	apply := func() {
		for si, plan := range plans {
			for ri := range plan {
				run := &plan[ri]
				switch {
				case run.Fused != nil:
					d.tr.do("actions.Run.Fused", func() {
						for _, st := range sts[si] {
							st.EachBatch(func(b *particle.Batch) { run.Fused(ctxs[si], b) })
						}
					})
				case len(run.Acts) == 1:
					d.tr.do("actions.ApplyToBatch:"+run.Acts[0].Name(), func() {
						for _, st := range sts[si] {
							st.EachBatch(func(b *particle.Batch) { actions.ApplyToBatch(ctxs[si], run.Acts[0], b) })
						}
					})
				}
			}
		}
	}
	// Kernels mutate the population (Move, KillOld), so every
	// repetition starts from a fresh copy: one repetition is one
	// frame's worth of kernel work.
	fresh := func() { sts = d.stores(dec) }
	kernel := d.timed("actions.kernels", fresh, apply)
	d.layer["actions.kernel_ns_per_particle"] = ns(kernel, d.n)
	fresh()
	d.layer["actions.kernel_allocs_per_particle"] = mallocs(apply) / float64(d.n)

	var created int
	source := d.timed("actions.Source.Generate", nil, func() {
		created = 0
		for si := range scn.Systems {
			for _, a := range scn.Systems[si].Actions {
				if src, ok := a.(*actions.Source); ok {
					created += len(src.Generate(ctxs[si]))
				}
			}
		}
	})
	d.layer["actions.source_ns_per_particle"] = ns(source, created)

	c := d.counts
	passes := c.passes
	if passes == 0 { // sequential engine: no registry; every stored particle takes every run
		passes = c.stored * float64(runsPerParticle)
	}
	perPass := 0.0
	if runsPerParticle > 0 {
		perPass = d.layer["actions.kernel_ns_per_particle"] / float64(runsPerParticle)
	}
	d.layer["actions.busy_ms_per_frame"] = (perPass*passes + d.layer["actions.source_ns_per_particle"]*c.created) / 1e6
}

// particleLayer times the column store and the wire codec.
func (d *drivers) particleLayer() error {
	scn := &d.r.scn
	c := d.counts
	dec := d.dec

	// A batch of the workload's typical particle-message size.
	batch := &particle.Batch{}
	for _, ps := range d.pop {
		for i := range ps {
			if batch.Len() < c.particleBatch {
				batch.Append(ps[i])
			}
		}
	}
	nb := batch.Len()
	const codecIters = 200
	var wire []byte
	var scratch particle.Batch
	var decodeErr error
	enc := d.timed("particle.EncodeWire", nil, func() {
		for i := 0; i < codecIters; i++ {
			bufpool.Put(batch.EncodeWire())
		}
	})
	wire = batch.EncodeWire()
	dcd := d.timed("particle.DecodeWireInto", nil, func() {
		for i := 0; i < codecIters; i++ {
			if err := scratch.DecodeWireInto(wire); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	d.layer["particle.encode_ns_per_particle"] = ns(enc, codecIters*nb)
	d.layer["particle.decode_ns_per_particle"] = ns(dcd, codecIters*nb)
	d.layer["particle.codec_allocs_per_batch"] = mallocs(func() {
		for i := 0; i < codecIters; i++ {
			buf := batch.EncodeWire()
			if err := scratch.DecodeWireInto(buf); err != nil {
				decodeErr = err
			}
			bufpool.Put(buf)
		}
	}) / codecIters
	bufpool.Put(wire)
	if decodeErr != nil {
		return decodeErr
	}

	// Out-of-domain scan: the population after one frame of motion, so
	// the scan finds what a real frame finds.
	var sts [][]*particle.ColumnStore
	moved := func() {
		sts = d.stores(dec)
		ctx := &actions.Context{RNG: geom.NewRNG(1), DT: scn.DT}
		for _, row := range sts {
			for _, st := range row {
				st.EachBatch(func(b *particle.Batch) { actions.ApplyToBatch(ctx, &actions.Move{}, b) })
			}
		}
	}
	_, slab := dec.(*domain.Table)
	part := d.timed("particle.Partition", moved, func() {
		for _, row := range sts {
			for ci, st := range row {
				if slab {
					st.PartitionBatch()
				} else {
					st.PartitionOwnedBatch(func(p geom.Vec3) bool { return dec.OwnerOf(p) == ci })
				}
			}
		}
	})
	d.layer["particle.partition_ns_per_particle"] = ns(part, d.n)

	fresh := func() { sts = d.stores(dec) }
	add := d.timed("particle.AddBatch", fresh, func() {
		for _, row := range sts {
			for _, st := range row {
				st.AddBatch(batch)
			}
		}
	})
	d.layer["particle.add_ns_per_particle"] = ns(add, nb*len(sts)*dec.N())

	donate := max(scn.LBMinBatch, 1)
	donated := 0
	don := d.timed("particle.DonateBatch", fresh, func() {
		donated = 0
		for _, row := range sts {
			for _, st := range row {
				b, _ := st.DonateBatch(donate, particle.HighSide)
				donated += b.Len()
			}
		}
	})
	d.layer["particle.donate_ns_per_particle"] = ns(don, donated)

	codec := d.layer["particle.encode_ns_per_particle"] + d.layer["particle.decode_ns_per_particle"] +
		d.layer["particle.add_ns_per_particle"]
	d.layer["particle.busy_ms_per_frame"] = (d.layer["particle.partition_ns_per_particle"]*c.stored +
		codec*(c.created+c.exchanged+c.moved) +
		d.layer["particle.donate_ns_per_particle"]*c.moved) / 1e6
	return nil
}

// domainLayer times ownership lookup, geometry rebalance and the
// decomposition codec.
func (d *drivers) domainLayer() error {
	dec := d.dec
	own := d.timed("domain.OwnerOf", nil, func() {
		for _, ps := range d.pop {
			for i := range ps {
				blackhole += uint64(dec.OwnerOf(ps[i].Pos))
			}
		}
	})
	d.layer["domain.ownerof_ns_per_particle"] = ns(own, d.n)

	loads := make([]float64, dec.N())
	for _, ps := range d.pop {
		for i := range ps {
			loads[dec.OwnerOf(ps[i].Pos)]++
		}
	}
	const iters = 200
	var codecErr error
	reb := d.timed("domain.Rebalance", nil, func() {
		// Rebalance moves the geometry, so each repetition works on
		// its own copy, made through the codec.
		cp, err := domain.Decode(domain.Encode(dec))
		if err != nil {
			codecErr = err
			return
		}
		for i := 0; i < iters; i++ {
			cp.Rebalance(loads)
		}
	})
	cod := d.timed("domain.Encode+Decode", nil, func() {
		for i := 0; i < iters; i++ {
			if _, err := domain.Decode(domain.Encode(dec)); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return codecErr
	}
	d.layer["domain.rebalance_us"] = ns(reb, iters) / 1e3
	d.layer["domain.codec_us"] = ns(cod, iters) / 1e3
	if _, ok := d.layer["domain.imbalance_max"]; !ok {
		d.layer["domain.imbalance_max"] = 1
	}
	return nil
}

// loadbalanceLayer times one manager evaluation round over the
// workload's own calculator count, loads and powers.
func (d *drivers) loadbalanceLayer() {
	scn := &d.r.scn
	n := max(2, d.r.spec.NCalc)
	reports := make([]loadbalance.Report, n)
	power := make([]float64, n)
	for i := range reports {
		// A skewed pair keeps the evaluation on its order-issuing path.
		reports[i] = loadbalance.Report{Load: d.n / n * (i + 1), Time: 0.01 * float64(i+1)}
		power[i] = 1
	}
	if d.r.cluster != nil {
		if place, err := d.r.cluster.Place(d.r.spec.NCalc); err == nil {
			for i := 0; i < d.r.spec.NCalc; i++ {
				power[i] = place.Rate(2 + i)
			}
		}
	}
	const iters = 2000
	bal := loadbalance.New(scn.LBThreshold, scn.LBMinBatch)
	ev := d.timed("loadbalance.Evaluate", nil, func() {
		for i := 0; i < iters; i++ {
			bal.Evaluate(reports, power)
		}
	})
	d.layer["loadbalance.evaluate_us"] = ns(ev, iters) / 1e3
}

func (d *drivers) bufpoolLayer() {
	const iters = 20000
	size := d.counts.medianPayload
	gp := d.timed("bufpool.Get+Put", nil, func() {
		for i := 0; i < iters; i++ {
			bufpool.Put(bufpool.Get(size))
		}
	})
	d.layer["bufpool.getput_ns"] = ns(gp, iters)
}

// pingFabric sends iters messages of size bytes from a to b and
// receives each, obeying the fabric contract: Send consumes the pooled
// payload, the receiver Releases what it was handed.
func pingFabric(a, b transport.Fabric, size, iters int) {
	for i := 0; i < iters; i++ {
		a.Send(b.Rank(), transport.TagParticles, bufpool.Get(size))
		m := b.Recv(a.Rank(), transport.TagParticles)
		m.Release()
	}
}

// transportLayer times one message through each fabric at the
// workload's own payload sizes.
func (d *drivers) transportLayer() error {
	c := d.counts
	cl, nCalc := d.r.parallelCluster() // only host-side costs are read, so a stand-in serves the sequential workload
	place, err := cl.Place(nCalc)
	if err != nil {
		return err
	}
	const small, big = 2000, 200

	router := transport.NewRouter(place, cl.Net)
	va, vb := router.Endpoint(2), router.Endpoint(3)
	virt := d.timed("transport.Router.Send+Recv", nil, func() { pingFabric(va, vb, c.medianPayload, small) })
	virtBig := d.timed("transport.Router.Send+Recv(render)", nil, func() { pingFabric(va, vb, c.renderPayload, big) })
	d.layer["transport.virtual_msg_us"] = ns(virt, small) / 1e3

	var tcpBigUs float64
	if d.r.spec.Engine == engineTCP {
		n := place.NumProcs()
		cost := transport.DefaultCost(place, cl.Net)
		fa, err := transport.ListenNet(2, n, "127.0.0.1:0", cost, transport.NetOptions{})
		if err != nil {
			return err
		}
		defer fa.Close()
		fb, err := transport.ListenNet(3, n, "127.0.0.1:0", cost, transport.NetOptions{})
		if err != nil {
			return err
		}
		defer fb.Close()
		addrs := make([]string, n)
		addrs[2], addrs[3] = fa.Addr(), fb.Addr()
		if err := fa.SetPeers(addrs); err != nil {
			return err
		}
		if err := fb.SetPeers(addrs); err != nil {
			return err
		}
		pingFabric(fa, fb, c.medianPayload, 1) // dial outside the timed region
		tcp := d.timed("transport.NetFabric.Send+Recv", nil, func() { pingFabric(fa, fb, c.medianPayload, small) })
		tcpBig := d.timed("transport.NetFabric.Send+Recv(render)", nil, func() { pingFabric(fa, fb, c.renderPayload, big) })
		d.layer["transport.tcp_msg_us"] = ns(tcp, small) / 1e3
		d.layer["transport.tcp_mb_per_s"] = float64(c.renderPayload*big) / 1e6 / tcpBig.Seconds()
		d.layer["transport.tcp_allocs_per_msg"] = mallocs(func() { pingFabric(fa, fb, c.medianPayload, small) }) / small
		tcpBigUs = ns(tcpBig, big) / 1e3
	}

	smallUs, bigUs := d.layer["transport.virtual_msg_us"], ns(virtBig, big)/1e3
	if d.r.spec.Engine == engineTCP {
		smallUs, bigUs = d.layer["transport.tcp_msg_us"], tcpBigUs
	}
	d.layer["transport.busy_ms_per_frame"] = (smallUs*(c.msgs-c.renderMsgs) + bigUs*c.renderMsgs) / 1e3
	return nil
}

// renderLayer times the framebuffer at the workload's own resolution,
// camera and population.
func (d *drivers) renderLayer() {
	scn := &d.r.scn
	w, h := scn.Render.Width, scn.Render.Height
	px := w * h
	region := scn.Space
	if scn.Mode == pscluster.InfiniteSpace || region.Size().Len2() == 0 {
		region = geom.Box(geom.V(-120, -120, -120), geom.V(120, 120, 120))
	}
	cam := render.OrthoCamera{Region: region, W: w, H: h}
	fb := render.NewFramebuffer(w, h)
	var all particle.Batch
	for _, ps := range d.pop {
		all.AppendSlice(ps)
	}

	clear := d.timed("render.Clear", nil, fb.Clear)
	splat := d.timed("render.SplatColumns", fb.Clear, func() { fb.SplatColumns(cam, &all) })
	check := d.timed("render.Checksum", nil, func() { blackhole += fb.Checksum() })
	ppm := d.timed("render.WritePPM", nil, func() {
		// io.Discard cannot fail and WritePPM has no other error source.
		_ = fb.WritePPM(io.Discard)
	})
	plane := render.NewPlane(1)
	ingest := d.timed("render.Plane.Ingest", fb.Clear, func() {
		// The decode hook copies the prepared columns: the plane's
		// lease, queue and barrier are what is being timed.
		_ = plane.Ingest(fb, cam, nil, func(dst *particle.Batch, _ []byte) error {
			dst.Clear()
			dst.AppendBatch(&all)
			return nil
		})
		plane.Barrier()
	})
	plane.Close()

	d.layer["render.clear_ns_per_px"] = ns(clear, px)
	d.layer["render.splat_ns_per_particle"] = ns(splat, d.n)
	d.layer["render.checksum_ns_per_px"] = ns(check, px)
	d.layer["render.ppm_ns_per_px"] = ns(ppm, px)
	d.layer["render.plane_ingest_ns_per_particle"] = ns(ingest, d.n)
	if scn.Render.Rasterize {
		d.layer["render.busy_ms_per_frame"] = ((d.layer["render.clear_ns_per_px"]+d.layer["render.checksum_ns_per_px"])*float64(px) +
			d.layer["render.splat_ns_per_particle"]*d.counts.stored) / 1e6
	}
}

// setupLayer times the set-up path's two pieces: scenario decode and
// bringing the fabric up.
func (d *drivers) setupLayer() error {
	const iters = 50
	var derr error
	dec := d.timed("scenario.Decode", nil, func() {
		for i := 0; i < iters; i++ {
			if _, err := scenario.Decode(d.r.spec.Scenario); err != nil {
				derr = err
			}
		}
	})
	if derr != nil {
		return derr
	}
	d.layer["scenario.decode_us"] = ns(dec, iters) / 1e3

	switch d.r.spec.Engine {
	case engineTCP:
		up := d.timed("cluster.tcpFabrics", nil, func() {
			fabs, err := tcpFabrics(d.r)
			if err != nil {
				derr = err
				return
			}
			closeFabrics(fabs)
		})
		d.layer["cluster.fabric_up_ms"] = float64(up.Nanoseconds()) / 1e6
	case engineParallel:
		up := d.timed("cluster.Place+NewRouter", nil, func() {
			place, err := d.r.cluster.Place(d.r.spec.NCalc)
			if err != nil {
				derr = err
				return
			}
			router := transport.NewRouter(place, d.r.cluster.Net)
			for rank := 0; rank < place.NumProcs(); rank++ {
				router.Endpoint(rank)
			}
		})
		d.layer["cluster.fabric_up_ms"] = float64(up.Nanoseconds()) / 1e6
	}
	return derr
}
