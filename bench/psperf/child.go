package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pscluster"
	"pscluster/internal/cluster"
	"pscluster/internal/obs"
)

// The child half of an end-to-end run. One child process executes one
// (workload, repetition): it receives the generated Spec on standard
// input and its mode on the command line, sets the system up, makes one
// engine call through the pscluster facade, and reports what it
// measured around that call as one JSON object on standard output.

// Child modes. plain is the untraced end-to-end run; the others exist
// for the traced pass and are never part of an end-to-end figure.
const (
	modePlain     = "plain"     // the spec's own engine, untraced
	modeSetupOnly = "setup"     // everything up to the engine call, then exit
	modeProfiled  = "profiled"  // RunParallelProfiled (obs overhead)
	modeServed    = "served"    // RunParallelServed + benchmark FrameSink + layer drivers
	modeVirtual   = "virtual"   // the spec's scenario on the virtual fabric (TCP workloads)
	modeNoCollide = "nocollide" // the scenario minus its store actions (collide by difference)
)

// ChildResult is what a child reports.
type ChildResult struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// EngineStartUnixNs is the wall clock at the engine call; the parent
	// subtracts its own pre-spawn stamp to get setup_s.
	EngineStartUnixNs int64 `json:"engine_start_unix_ns"`

	Frames     int     `json:"frames"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	MaxRSSKB   int64   `json:"max_rss_kb"`

	VirtualS      float64  `json:"virtual_s"`
	BytesSent     int      `json:"bytes_sent"`
	MsgsSent      int      `json:"msgs_sent"`
	ImbalanceMean float64  `json:"imbalance_mean"`
	Checksums     []uint64 `json:"checksums"`

	// Traced-pass payload (modeServed only).
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// runnable is a decoded Spec, ready for an engine call.
type runnable struct {
	spec    Spec
	scn     pscluster.Scenario
	cluster *pscluster.Cluster
	seqNode pscluster.NodeType
	comp    pscluster.Compiler
}

func nodeType(name string) (pscluster.NodeType, error) {
	switch name {
	case "A":
		return pscluster.TypeA, nil
	case "B":
		return pscluster.TypeB, nil
	case "C":
		return pscluster.TypeC, nil
	}
	return pscluster.NodeType{}, fmt.Errorf("unknown node type %q", name)
}

// decodeSpec turns Spec JSON into a runnable: scenario decode, render
// overrides, cluster construction. It is the first part of set-up.
func decodeSpec(data []byte) (*runnable, error) {
	var r runnable
	if err := json.Unmarshal(data, &r.spec); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	scn, err := pscluster.DecodeScenario(r.spec.Scenario)
	if err != nil {
		return nil, err
	}
	rs := r.spec.Render
	scn.Render.Width, scn.Render.Height, scn.Render.Rasterize = rs.Width, rs.Height, rs.Rasterize
	scn.Render.CostPerParticle, scn.Render.FrameOverhead = rs.CostPerParticle, rs.FrameOverhead
	scn.Render.BytesPerParticle = rs.BytesPerParticle
	// Validate here as well as in the engines (which validate their own
	// copy): it fills the defaults the traced pass reads back.
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	r.scn = scn

	switch r.spec.Compiler {
	case "gcc":
		r.comp = pscluster.GCC
	case "icc":
		r.comp = pscluster.ICC
	default:
		return nil, fmt.Errorf("spec: unknown compiler %q", r.spec.Compiler)
	}
	if len(r.spec.Nodes) == 0 {
		return nil, errors.New("spec: no nodes")
	}
	if r.seqNode, err = nodeType(r.spec.Nodes[0].Type); err != nil {
		return nil, err
	}
	if r.spec.Engine == engineSequential {
		return &r, nil
	}
	var net pscluster.Network
	switch r.spec.Net {
	case "myrinet":
		net = pscluster.Myrinet
	case "fast-ethernet":
		net = pscluster.FastEthernet
	default:
		return nil, fmt.Errorf("spec: unknown network %q", r.spec.Net)
	}
	groups := make([]cluster.NodeSpec, 0, len(r.spec.Nodes))
	for _, g := range r.spec.Nodes {
		t, err := nodeType(g.Type)
		if err != nil {
			return nil, err
		}
		groups = append(groups, pscluster.Nodes(t, g.Count))
	}
	r.cluster = pscluster.NewCluster(net, r.comp, groups...)
	return &r, nil
}

// parallelCluster returns the cluster and calculator count for a
// parallel run of the spec's scenario. The sequential workload has
// none of its own and gets a two-node stand-in.
func (r *runnable) parallelCluster() (*pscluster.Cluster, int) {
	if r.cluster != nil {
		return r.cluster, r.spec.NCalc
	}
	return pscluster.NewCluster(pscluster.Myrinet, pscluster.GCC, pscluster.Nodes(pscluster.TypeB, 2)), 2
}

// engineOut is the engine-independent part of a run's outcome.
type engineOut struct {
	frames    int
	virtualS  float64
	bytesSent int
	msgsSent  int
	imbalance []float64
	checksums []uint64
}

// fromResult adapts an engine's (Result, error) return.
func fromResult(res *pscluster.Result, err error) (engineOut, error) {
	if err != nil {
		return engineOut{}, err
	}
	return engineOut{
		frames: len(res.FrameChecksums), virtualS: res.Time,
		bytesSent: res.BytesSent, msgsSent: res.MsgsSent,
		imbalance: res.FrameImbalance, checksums: res.FrameChecksums,
	}, nil
}

// tcpFabrics is the set-up half of the TCP engine: one NetFabric per
// rank, each bound to a free loopback port, with the full peer table
// installed. Connections are dialed lazily by the first sends.
func tcpFabrics(r *runnable) ([]*pscluster.NetFabric, error) {
	place, err := r.cluster.Place(r.spec.NCalc)
	if err != nil {
		return nil, err
	}
	n := place.NumProcs()
	fabs := make([]*pscluster.NetFabric, 0, n)
	addrs := make([]string, 0, n)
	for rank := 0; rank < n; rank++ {
		f, err := pscluster.ListenNet(rank, n, "127.0.0.1:0",
			pscluster.DefaultCost(place, r.cluster.Net), pscluster.NetOptions{})
		if err != nil {
			closeFabrics(fabs)
			return nil, err
		}
		fabs = append(fabs, f)
		addrs = append(addrs, f.Addr())
	}
	for _, f := range fabs {
		if err := f.SetPeers(addrs); err != nil {
			closeFabrics(fabs)
			return nil, err
		}
	}
	return fabs, nil
}

func closeFabrics(fabs []*pscluster.NetFabric) {
	for _, f := range fabs {
		f.Close() // NetFabric.Close never fails; it waits for its reader goroutines
	}
}

// runTCP is the engine call of the TCP workload: every rank is a
// RunNode goroutine of this process, talking over loopback sockets.
// sink is nil for untraced runs.
func runTCP(r *runnable, fabs []*pscluster.NetFabric, sink obs.FrameSink) (engineOut, error) {
	results := make([]*pscluster.NodeResult, len(fabs))
	errs := make([]error, len(fabs))
	var wg sync.WaitGroup
	for rank, f := range fabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank], errs[rank] = pscluster.RunNode(r.scn, r.cluster, r.spec.NCalc, rank, f, sink)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return engineOut{}, err
	}
	var out engineOut
	for _, nr := range results {
		out.bytesSent += nr.BytesSent
		out.msgsSent += nr.MsgsSent
		if nr.FrameChecksums != nil {
			// The image generator: its clock closes the last frame.
			out.virtualS = nr.Time
			out.checksums = nr.FrameChecksums
			out.frames = len(nr.FrameChecksums)
		}
	}
	return out, nil
}

// prepared is a fully set-up run: calling engine() is the timed part,
// and teardown() releases what set-up acquired.
type prepared struct {
	engine   func() (engineOut, error)
	teardown func()
}

// prepare finishes set-up for a mode and returns the engine call.
func prepare(r *runnable, mode string) (*prepared, error) {
	p := &prepared{teardown: func() {}}
	engine := r.spec.Engine
	if mode == modeVirtual && engine == engineTCP {
		engine = engineParallel
	}
	switch {
	case mode == modeProfiled:
		p.engine = func() (engineOut, error) {
			res, _, err := pscluster.RunParallelProfiled(r.scn, r.cluster, r.spec.NCalc)
			return fromResult(res, err)
		}
	case engine == engineSequential:
		p.engine = func() (engineOut, error) {
			return fromResult(pscluster.RunSequential(r.scn, r.seqNode, r.comp))
		}
	case engine == engineTCP:
		fabs, err := tcpFabrics(r)
		if err != nil {
			return nil, err
		}
		p.engine = func() (engineOut, error) { return runTCP(r, fabs, nil) }
		p.teardown = func() { closeFabrics(fabs) }
	case engine == engineParallel:
		p.engine = func() (engineOut, error) {
			return fromResult(pscluster.RunParallel(r.scn, r.cluster, r.spec.NCalc))
		}
	default:
		return nil, fmt.Errorf("spec: unknown engine %q", engine)
	}
	return p, nil
}

// measured is what the child observes around one engine call.
type measured struct {
	startUnixNs int64
	wall, cpu   float64
	mallocs     uint64
	allocBytes  uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSKB returns this process's peak resident set: VmHWM from
// /proc/self/status. Not ru_maxrss — Linux carries the forking parent's
// high-water mark across exec into that field, so a child would report
// the harness's footprint whenever it is the larger one.
func maxRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64) // 0 on a malformed line: the metric then reads 0 and the tests' never-0 check catches it
			return kb
		}
	}
	return 0
}

// timeEngine makes the engine call and measures around it. A panic
// escaping the engine is reported as an error: it fails the run's
// frames, it does not take the harness down.
func timeEngine(engine func() (engineOut, error)) (out engineOut, m measured, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine panicked: %v", p)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	m.startUnixNs = t0.UnixNano()
	out, err = engine()
	m.wall = time.Since(t0).Seconds()
	m.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	m.mallocs = after.Mallocs - before.Mallocs
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	return out, m, err
}

func meanOr1(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// childMain runs one child and writes its ChildResult to w.
func childMain(mode string, procs int, in io.Reader, w io.Writer) {
	runtime.GOMAXPROCS(procs)
	var res ChildResult
	if err := runChild(mode, in, &res); err != nil {
		res.OK, res.Error = false, err.Error()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&res); err != nil {
		fmt.Fprintln(os.Stderr, "psperf child:", err)
		os.Exit(1)
	}
}

func runChild(mode string, in io.Reader, res *ChildResult) error {
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	r, err := decodeSpec(data)
	if err != nil {
		return err
	}
	if mode == modeNoCollide {
		dropStoreActions(&r.scn)
	}
	if mode == modeServed {
		return runServed(r, res)
	}
	p, err := prepare(r, mode)
	if err != nil {
		return err
	}
	defer p.teardown()
	if mode == modeSetupOnly {
		res.EngineStartUnixNs = time.Now().UnixNano()
		res.OK = true
		return nil
	}
	out, m, err := timeEngine(p.engine)
	if err != nil {
		return err
	}
	fillResult(res, out, m)
	return nil
}

func fillResult(res *ChildResult, out engineOut, m measured) {
	res.OK = true
	res.EngineStartUnixNs = m.startUnixNs
	res.Frames = out.frames
	res.WallS, res.CPUS = m.wall, m.cpu
	res.Mallocs, res.AllocBytes = m.mallocs, m.allocBytes
	res.MaxRSSKB = maxRSSKB()
	res.VirtualS = out.virtualS
	res.BytesSent, res.MsgsSent = out.bytesSent, out.msgsSent
	res.ImbalanceMean = meanOr1(out.imbalance)
	res.Checksums = out.checksums
}
