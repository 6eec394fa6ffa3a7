package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/domain"
	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
	"pscluster/internal/obs"
	"pscluster/internal/particle"
	"pscluster/internal/render"
	"pscluster/internal/transport"
)

// Process ranks (paper §3.1.1: manager, image generator, n calculators).
const (
	rankManager  = 0
	rankImageGen = 1
	rankCalc0    = 2
)

// evalWorkPerCalc is the manager-side work units to evaluate one
// calculator's report during load balancing.
const evalWorkPerCalc = 20.0

// RunParallel executes the scenario on the given (simulated) cluster
// with nCalc calculator processes, following the per-frame phase
// structure of the paper's Figure 2. Physics is computed for real by
// goroutines; timing is virtual (see package transport). Each process
// role compiles its frame into a step program — one compiler
// (schedule.go) walking the system groups the scenario's Schedule
// picks, with the LB policy's steps per group — and the runner in
// pipeline.go executes it every frame.
func RunParallel(scn Scenario, cl *cluster.Cluster, nCalc int) (*Result, error) {
	res, _, err := runParallel(scn, cl, nCalc, false, nil)
	return res, err
}

// RunParallelProfiled runs like RunParallel with the observability layer
// on: every process records Figure-2 phase spans, per-frame blocked-wait
// and communication time, and traffic metrics. Recording reads virtual
// clocks but never advances them, so the Result — frame checksums,
// virtual times, traffic totals — is bit-identical to RunParallel's.
func RunParallelProfiled(scn Scenario, cl *cluster.Cluster, nCalc int) (*Result, *obs.Profile, error) {
	return runParallel(scn, cl, nCalc, true, nil)
}

// RunParallelServed runs like RunParallelProfiled with a live telemetry
// sink attached: every process publishes one FrameRecord per frame (its
// spans, message events, cloned metrics and role status) to the sink at
// its frame boundary. Publishing happens after the frame closes and
// never touches virtual clocks, so the Result and Profile stay
// bit-identical to an unserved run — the sink only costs wall time.
func RunParallelServed(scn Scenario, cl *cluster.Cluster, nCalc int, sink obs.FrameSink) (*Result, *obs.Profile, error) {
	return runParallel(scn, cl, nCalc, true, sink)
}

func runParallel(scn Scenario, cl *cluster.Cluster, nCalc int, profiled bool, sink obs.FrameSink) (*Result, *obs.Profile, error) {
	if err := scn.Validate(); err != nil {
		return nil, nil, err
	}
	if nCalc < 1 {
		return nil, nil, fmt.Errorf("core: need at least one calculator")
	}
	place, err := cl.Place(nCalc)
	if err != nil {
		return nil, nil, err
	}
	router := transport.NewRouter(place, cl.Net)

	// Observability: one recorder per process goroutine, attached to its
	// endpoint; zero synchronization while running, merged after
	// runRanks returns.
	ranks := make([]rankProc, NumRanks(nCalc))
	var recs []*obs.Recorder
	for r := range ranks {
		var rec *obs.Recorder
		if profiled {
			rec = rankRecorder(r, sink)
			recs = append(recs, rec)
		}
		if ranks[r], err = newRank(&scn, place, nCalc, r, router.Endpoint(r), rec); err != nil {
			return nil, nil, err
		}
	}
	if err := runRanks(ranks); err != nil {
		return nil, nil, err
	}

	res := assembleResult(&scn, ranks)
	var prof *obs.Profile
	if profiled {
		prof = assembleProfile(res, recs, ranks)
	}
	return res, prof, nil
}

// rankProc is a process role the launcher can drive end to end.
type rankProc interface {
	endpoint() transport.Fabric
	rank() int
	run() error
}

// newRank builds rank's role of the fixed process layout (paper §3.1.1)
// over fab: the in-process runner calls it once per rank over one
// virtual router, RunNode once over its own fabric, so both build
// bit-identical process state. A non-nil rec observes fab and records
// the rank's spans.
func newRank(scn *Scenario, place *cluster.Placement, nCalc, rank int, fab transport.Fabric, rec *obs.Recorder) (rankProc, error) {
	if rec != nil {
		fab.SetObserver(rec)
	}
	switch rank {
	case rankManager:
		m, err := newManagerProc(scn, place, nCalc, fab)
		if err != nil {
			return nil, err
		}
		m.rec = rec
		return m, nil
	case rankImageGen:
		g := newImageGenProc(scn, place, nCalc, fab)
		g.rec = rec
		return g, nil
	default:
		c, err := newCalcProc(scn, place, nCalc, rank-rankCalc0, fab)
		if err != nil {
			return nil, err
		}
		c.rec = rec
		return c, nil
	}
}

// rankRecorder returns a recorder for rank, labelled by its role, that
// publishes to sink when sink is non-nil.
func rankRecorder(rank int, sink obs.FrameSink) *obs.Recorder {
	label := fmt.Sprintf("calculator %d", rank-rankCalc0)
	switch rank {
	case rankManager:
		label = "manager"
	case rankImageGen:
		label = "image generator"
	}
	rec := obs.NewRecorder(rank, label)
	rec.AttachSink(sink)
	return rec
}

// runRanks runs every rank on its own goroutine through runRank and
// waits for all of them. It returns the lowest rank's own failure;
// ErrAborted — a rank torn down by somebody else's failure — only when
// nothing else was reported.
func runRanks(ranks []rankProc) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, p := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runRank(p)
		}()
	}
	wg.Wait()
	var aborted error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if !errors.Is(e, transport.ErrAborted) {
			return e
		}
		aborted = e
	}
	return aborted
}

// runRank drives one rank to completion. An error or panic aborts the
// rank's fabric, which unblocks its peers' pending operations so the
// whole run tears down rather than hangs. ErrAborted — a peer tore the
// run down — passes through as itself; anything else is reported as
// this rank's failure.
func runRank(p rankProc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, transport.ErrAborted) {
				err = e
			} else {
				err = fmt.Errorf("core: rank %d panicked: %v", p.rank(), r)
			}
		}
		if err != nil {
			p.endpoint().Abort()
		}
	}()
	return p.run()
}

// assembleProfile merges the per-process recorders and adds the
// run-level metrics the recorders cannot see on their own.
func assembleProfile(res *Result, recs []*obs.Recorder, ranks []rankProc) *obs.Profile {
	p := obs.NewProfile(recs...)
	reg := p.Registry

	var orders, evals int
	for _, b := range ranks[rankManager].(*managerProc).balancers {
		orders += b.Stat.Orders
		evals += b.Stat.Evaluations
	}
	reg.Counter("pscluster_lb_evaluations_total",
		"load-balancing evaluation rounds run by the manager").Add(float64(evals))
	reg.Counter("pscluster_lb_orders_total",
		"load-balancing orders issued by the manager").Add(float64(orders))
	reg.Counter("pscluster_lb_rounds_total",
		"balancing rounds that produced at least one order").Add(float64(res.LBRounds))
	reg.Counter("pscluster_lb_moved_particles_total",
		"particles moved by balancing orders (represented scale)").Add(float64(res.LBMoved))
	reg.Counter("pscluster_exchanged_particles_total",
		"calculator-to-calculator end-of-frame exchanges (represented scale)").Add(float64(res.ExchangedParticles))
	reg.Counter("pscluster_exchanged_bytes_total",
		"billed bytes of end-of-frame exchanges").Add(float64(res.ExchangedBytes))
	reg.Counter("pscluster_frames_total",
		"frames delivered by the image generator").Add(float64(len(res.FrameChecksums)))

	for i, load := range res.CalcLoads {
		reg.Gauge("pscluster_calc_particles",
			"final stored particles per calculator",
			"rank", strconv.Itoa(rankCalc0+i)).Set(float64(load))
	}
	// Per-rank compute-pass totals: every (bin, kernel) application the
	// calculator's per-particle passes made, as counted by notePasses.
	for _, p := range ranks[rankCalc0:] {
		c := p.(*calcProc)
		reg.Counter("pscluster_compute_bin_passes_total",
			"bin-batch kernel applications per calculator",
			"rank", strconv.Itoa(c.rank())).Add(float64(c.binPasses))
		reg.Counter("pscluster_compute_particle_passes_total",
			"particle kernel applications per calculator (stored scale)",
			"rank", strconv.Itoa(c.rank())).Add(float64(c.particlePasses))
	}
	for rank, t := range res.PerProcTime {
		reg.Gauge("pscluster_proc_time_seconds",
			"final virtual clock per process",
			"rank", strconv.Itoa(rank)).Set(t)
	}
	return p
}

// assembleResult merges per-process state into one Result.
func assembleResult(scn *Scenario, ranks []rankProc) *Result {
	mgr := ranks[rankManager].(*managerProc)
	img := ranks[rankImageGen].(*imageGenProc)
	calcs := make([]*calcProc, len(ranks)-rankCalc0)
	for i := range calcs {
		calcs[i] = ranks[rankCalc0+i].(*calcProc)
	}
	res := &Result{
		Frames:         scn.Frames,
		FrameChecksums: img.checksums,
		FrameTimes:     img.frameTimes,
		LBRounds:       mgr.lbRounds,
		FrameImbalance: mgr.imbalance,
	}
	tallyRanks(res, ranks)
	exchanged, calcMoved := 0, 0
	for _, c := range calcs {
		exchanged += c.exchangedStored
		calcMoved += c.lbMovedStored
		res.CalcLoads = append(res.CalcLoads, storedLen(c.stores))
	}
	res.ExchangedParticles = int(float64(exchanged) * scn.Ratio)
	res.ExchangedBytes = int(float64(exchanged*particle.WireSize) * scn.Ratio)
	res.LBMoved = int(float64(mgr.lbMovedStored+calcMoved) * scn.Ratio)
	if scn.CollectParticles {
		res.FinalParticles = make([][]particle.Particle, len(scn.Systems))
		for si := range scn.Systems {
			var all []particle.Particle
			for _, c := range calcs {
				all = append(all, c.stores[si].All()...)
			}
			sortParticles(all)
			res.FinalParticles[si] = all
		}
	}
	return res
}

// tallyRanks fills res's per-process clocks, run time and traffic
// totals from the launched ranks' endpoints, in rank order.
func tallyRanks(res *Result, ranks []rankProc) {
	for _, p := range ranks {
		ep := p.endpoint()
		t := ep.Clock().Now()
		res.PerProcTime = append(res.PerProcTime, t)
		if t > res.Time {
			res.Time = t
		}
		st := ep.Stats()
		res.MsgsSent += st.MsgsSent
		res.BytesSent += st.BytesSent
		res.MsgsRecv += st.MsgsRecv
		res.BytesRecv += st.BytesRecv
	}
}

// storedLen returns the particles held across stores.
func storedLen(stores []*particle.ColumnStore) int {
	n := 0
	for _, st := range stores {
		n += st.Len()
	}
	return n
}

// calcRankList returns the calculator ranks for an nCalc-calculator
// run, ascending.
func calcRankList(nCalc int) []int {
	ranks := make([]int, nCalc)
	for i := range ranks {
		ranks[i] = rankCalc0 + i
	}
	return ranks
}

// calcPower returns the relative compute-power vector the manager and
// the calculators share for balancing decisions: the placement's rate
// per calculator rank, or flat 1s when the scenario ignores power.
func calcPower(scn *Scenario, place *cluster.Placement, nCalc int) []float64 {
	power := make([]float64, nCalc)
	for i := range power {
		if scn.IgnorePower {
			power[i] = 1
		} else {
			power[i] = place.Rate(rankCalc0 + i)
		}
	}
	return power
}

// newDecomps builds one fresh decomposition per particle system. Every
// process keeps its own replica (as the paper's per-process dimension
// tables do) and updates it from the same broadcast orders.
func newDecomps(scn *Scenario, nCalc int) ([]domain.Decomposition, error) {
	ds := make([]domain.Decomposition, len(scn.Systems))
	for i := range ds {
		d, err := scn.newDecomposition(nCalc)
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}

// newManagerProc builds the manager-role process state over fab.
func newManagerProc(scn *Scenario, place *cluster.Placement, nCalc int, fab transport.Fabric) (*managerProc, error) {
	decomps, err := newDecomps(scn, nCalc)
	if err != nil {
		return nil, err
	}
	return &managerProc{
		scn: scn, ep: fab, rate: place.Rate(rankManager),
		decomps: decomps, power: calcPower(scn, place, nCalc),
		calcRanks: calcRankList(nCalc), nCalc: nCalc,
	}, nil
}

// newCalcProc builds calculator idx's process state over fab.
func newCalcProc(scn *Scenario, place *cluster.Placement, nCalc, idx int, fab transport.Fabric) (*calcProc, error) {
	decomps, err := newDecomps(scn, nCalc)
	if err != nil {
		return nil, err
	}
	c := &calcProc{
		scn: scn, idx: idx, ep: fab,
		rate: place.Rate(rankCalc0 + idx), decomps: decomps, nCalc: nCalc,
		power: calcPower(scn, place, nCalc),
	}
	lo, hi := scn.SpaceInterval()
	c.stores = make([]*particle.ColumnStore, len(scn.Systems))
	for si := range c.stores {
		// The store's axis interval drives sub-domain binning. Slab
		// domains are axis intervals, so the store covers exactly the
		// owned slice (and donation sorts only edge bins); the other
		// strategies own regions no interval describes, so the store
		// bins over the full extent and ownership lives in the
		// decomposition alone.
		slo, shi := lo, hi
		if t, ok := decomps[si].(*domain.Table); ok {
			slo, shi = t.Bounds(idx)
		}
		c.stores[si] = scn.newStore(slo, shi)
	}
	return c, nil
}

// newImageGenProc builds the image-generator process state over fab.
func newImageGenProc(scn *Scenario, place *cluster.Placement, nCalc int, fab transport.Fabric) *imageGenProc {
	return &imageGenProc{
		scn: scn, ep: fab, rate: place.Rate(rankImageGen),
		calcRanks: calcRankList(nCalc),
	}
}

// groupOwnerBatches refills groups, one batch per calculator, with b's
// particles split by owner: each group is cleared, then the position
// column is scanned in order, so every group keeps b's order. The
// groups belong to the caller, which reuses them every frame — the
// manager for creation, a calculator for its exchanges.
func groupOwnerBatches(groups []particle.Batch, b *particle.Batch, d domain.Decomposition) {
	for i := range groups {
		groups[i].Clear()
	}
	for i := range b.Pos {
		groups[d.OwnerOf(b.Pos[i])].AppendIndex(b, i)
	}
}

// ---------------------------------------------------------------------
// Manager (rank 0)
// ---------------------------------------------------------------------

type managerProc struct {
	scn       *Scenario
	ep        transport.Fabric
	rate      float64
	decomps   []domain.Decomposition
	power     []float64
	calcRanks []int
	nCalc     int

	ctxs          []*actions.Context
	balancers     []*loadbalance.Balancer
	lbRounds      int
	lbMovedStored int
	imbalance     []float64     // per-frame max/mean load ratio, from LB reports
	rec           *obs.Recorder // nil unless the run is profiled

	// Step scratch, sized once in run() and reused every frame (steps
	// that append write the grown slice back): the [system][calculator]
	// report table with its decode row, one system's report times, the
	// [calculator][system-in-group] order and payload-slot rows of the
	// per-calculator sends, the group's edge tables, and one creating
	// action's particles, whole and split by owning calculator.
	reports       [][]loadbalance.Report
	reportScratch []loadbalance.Report
	loads         []float64
	calcOrders    [][]*loadbalance.Order
	calcSlots     [][][]byte
	edgeTables    [][]float64
	created       particle.Batch
	owned         []particle.Batch

	fs managerFrame
}

// managerFrame is the manager's per-frame scratch: each system's
// balancing orders, flowing from the lb-evaluation step to the
// dims-broadcast step, and the per-calculator loads accumulated from
// the frame's reports for the imbalance record.
type managerFrame struct {
	frame      int
	orders     [][]loadbalance.Order // per system
	frameLoads []float64             // stored particles reported per calculator
}

// slab returns system si's decomposition as the paper's slab Table.
// Only the slab-specific LB policies call it, and the engine never
// routes a non-slab scenario to them (see Scenario.lbPolicy).
func (m *managerProc) slab(si int) *domain.Table { return m.decomps[si].(*domain.Table) }

// addFrameLoad accumulates one calculator's reported load into the
// frame's imbalance record.
func (m *managerProc) addFrameLoad(ci int, load float64) {
	if m.fs.frameLoads == nil {
		m.fs.frameLoads = make([]float64, m.nCalc)
	}
	m.fs.frameLoads[ci] += load
}

// recordImbalance closes the frame's imbalance record: max/mean of the
// reported per-calculator loads (1 when nothing was reported — a
// perfectly balanced empty frame). Frames without LB reports (static
// balancing) record nothing.
func (m *managerProc) recordImbalance() {
	if m.fs.frameLoads == nil {
		return
	}
	var max, total float64
	for _, l := range m.fs.frameLoads {
		if l > max {
			max = l
		}
		total += l
	}
	imb := 1.0
	if total > 0 {
		imb = max * float64(len(m.fs.frameLoads)) / total
	}
	m.imbalance = append(m.imbalance, imb)
}

func (m *managerProc) scenario() *Scenario        { return m.scn }
func (m *managerProc) endpoint() transport.Fabric { return m.ep }
func (m *managerProc) recorder() *obs.Recorder    { return m.rec }
func (m *managerProc) rank() int                  { return rankManager }

func (m *managerProc) beginFrame(frame int) {
	m.fs = managerFrame{frame: frame, orders: m.fs.orders}
}

func (m *managerProc) annotateLive(fr *obs.FrameRecord) {
	fr.LBRounds = m.lbRounds
	for _, b := range m.balancers {
		fr.LBOrders += b.Stat.Orders
	}
}

func (m *managerProc) run() error {
	scn := m.scn
	nSys := len(scn.Systems)
	m.balancers = make([]*loadbalance.Balancer, nSys)
	m.ctxs = make([]*actions.Context, nSys)
	m.reports = make([][]loadbalance.Report, nSys)
	m.reportScratch = make([]loadbalance.Report, 0, nSys)
	m.loads = make([]float64, m.nCalc)
	m.calcOrders = make([][]*loadbalance.Order, m.nCalc)
	m.calcSlots = make([][][]byte, m.nCalc)
	m.edgeTables = make([][]float64, 0, nSys)
	m.owned = make([]particle.Batch, m.nCalc)
	m.fs.orders = make([][]loadbalance.Order, nSys)
	for c := 0; c < m.nCalc; c++ {
		m.calcOrders[c] = make([]*loadbalance.Order, nSys)
	}
	for i := range scn.Systems {
		m.reports[i] = make([]loadbalance.Report, m.nCalc)
		m.balancers[i] = loadbalance.New(scn.LBThreshold, scn.LBMinBatch)
		if scn.NaivePairing {
			m.balancers[i].Alternate = false
		}
		m.ctxs[i] = &actions.Context{RNG: geom.NewRNG(scn.Systems[i].Seed), DT: scn.DT}
	}
	return runProgram(m, compileManager(m, scn.lbPolicy()))
}

// ---------------------------------------------------------------------
// Calculator (ranks 2..2+n-1)
// ---------------------------------------------------------------------

type calcProc struct {
	scn     *Scenario
	idx     int // calculator index (rank - 2)
	ep      transport.Fabric
	rate    float64
	decomps []domain.Decomposition
	stores  []*particle.ColumnStore
	nCalc   int
	power   []float64

	ctxs   []*actions.Context
	others []int // every calculator rank except this one, ascending

	// plans is the compiled run program per system, one run per action;
	// binPasses and particlePasses count what its per-particle passes
	// touched.
	plans          [][]actions.Run
	binPasses      int
	particlePasses int

	exchangedStored int
	lbMovedStored   int
	rec             *obs.Recorder // nil unless the run is profiled

	// wire is the reusable decode scratch for inbound particle batches:
	// payloads decode into its columns (no per-message allocation) and
	// are copied into the target store by AddBatch.
	wire particle.Batch

	// Store-action scratch: the neighbor grids, the outgoing ghost bands
	// (one per neighbor) and the ghosts received for the current action.
	storeScratch actions.StoreScratch
	bands        []particle.Batch
	ghosts       particle.Batch

	// Step scratch, sized once in run() and reused every frame (steps
	// that append write the grown slice back): the payload slots of the
	// message being packed or unpacked (the pooled buffers themselves are
	// consumed by the pack), each system's leavers grouped by owning
	// calculator, and the group's load reports and edge tables.
	slots      [][]byte
	owned      [][]particle.Batch
	reports    []loadbalance.Report
	edgeTables [][]float64

	fs calcFrame
}

// calcFrame is a calculator's per-frame scratch, all of it per system:
// the accumulated work and pre-exchange loads feeding the load reports,
// and the balancing orders and selected donations flowing from the
// new-dims step to the load-balance step (written before they are read,
// so never reset).
type calcFrame struct {
	frame     int
	work      []float64 // accumulated work units
	oldLoad   []int     // pre-exchange particle count
	orders    []*loadbalance.Order
	donations []*particle.Batch
}

func (c *calcProc) scenario() *Scenario        { return c.scn }
func (c *calcProc) endpoint() transport.Fabric { return c.ep }
func (c *calcProc) recorder() *obs.Recorder    { return c.rec }
func (c *calcProc) rank() int                  { return rankCalc0 + c.idx }

func (c *calcProc) beginFrame(frame int) {
	clear(c.fs.work)
	clear(c.fs.oldLoad)
	c.fs.frame = frame
}

// slab returns system si's decomposition as the paper's slab Table;
// see managerProc.slab.
func (c *calcProc) slab(si int) *domain.Table { return c.decomps[si].(*domain.Table) }

func (c *calcProc) annotateLive(fr *obs.FrameRecord) {
	for _, st := range c.stores {
		fr.Particles += st.Len()
	}
}

// otherCalcRanks returns every calculator rank except this one, ascending.
func (c *calcProc) otherCalcRanks() []int {
	out := make([]int, 0, c.nCalc-1)
	for i := 0; i < c.nCalc; i++ {
		if i != c.idx {
			out = append(out, rankCalc0+i)
		}
	}
	return out
}

func (c *calcProc) run() error {
	scn := c.scn
	// Calculator-local contexts: stochastic per-particle actions use the
	// particles' private streams, so this RNG only matters for actions
	// that deliberately want process-local noise.
	c.ctxs = make([]*actions.Context, len(scn.Systems))
	for i := range c.ctxs {
		c.ctxs[i] = &actions.Context{
			RNG: geom.NewRNG(scn.Systems[i].Seed ^ uint64(rankCalc0+c.idx)<<32),
			DT:  scn.DT,
		}
	}
	c.others = c.otherCalcRanks()
	nSys := len(scn.Systems)
	c.fs.work = make([]float64, nSys)
	c.fs.oldLoad = make([]int, nSys)
	c.fs.orders = make([]*loadbalance.Order, nSys)
	c.fs.donations = make([]*particle.Batch, nSys)
	c.slots = make([][]byte, 0, nSys)
	c.owned = make([][]particle.Batch, nSys)
	for si := range c.owned {
		c.owned[si] = make([]particle.Batch, c.nCalc)
	}
	c.reports = make([]loadbalance.Report, 0, nSys)
	c.edgeTables = make([][]float64, 0, nSys)
	c.plans = compilePlans(scn)
	return runProgram(c, compileCalc(c, scn.lbPolicy()))
}

// ---------------------------------------------------------------------
// Image generator (rank 1)
// ---------------------------------------------------------------------

type imageGenProc struct {
	scn       *Scenario
	ep        transport.Fabric
	rate      float64
	calcRanks []int

	fb  *render.Framebuffer // nil unless the scenario rasterizes
	cam render.Camera

	// wire is the reusable render-batch decode scratch; gather and blobs
	// are the collect phase's per-frame message/slot scratch.
	wire   particle.Batch
	gather []transport.Message
	blobs  [][][]byte

	checksums  []uint64
	frameTimes []float64
	rec        *obs.Recorder // nil unless the run is profiled

	fs imageFrame
}

// imageFrame is the image generator's per-frame scratch: the running
// frame checksum accumulated while collecting render batches.
type imageFrame struct {
	frame    int
	frameSum uint64
}

func (g *imageGenProc) scenario() *Scenario        { return g.scn }
func (g *imageGenProc) endpoint() transport.Fabric { return g.ep }
func (g *imageGenProc) recorder() *obs.Recorder    { return g.rec }
func (g *imageGenProc) rank() int                  { return rankImageGen }
func (g *imageGenProc) beginFrame(frame int)       { g.fs = imageFrame{frame: frame} }

func (g *imageGenProc) annotateLive(fr *obs.FrameRecord) {
	fr.FramesDone = len(g.checksums)
}

func (g *imageGenProc) run() error {
	scn := g.scn
	g.checksums = make([]uint64, 0, scn.Frames)
	g.gather = make([]transport.Message, len(g.calcRanks))
	g.blobs = make([][][]byte, len(g.calcRanks))
	if scn.Render.Rasterize {
		g.fb = render.NewFramebuffer(scn.Render.Width, scn.Render.Height)
		g.cam = defaultCamera(scn)
		if err := ensureOutputDir(scn); err != nil {
			return err
		}
	}
	return runProgram(g, compileImage(g))
}
