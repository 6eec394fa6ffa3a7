package main

import (
	"encoding/json"
	"fmt"

	"pscluster"
	"pscluster/internal/experiments"
)

// Engine selects which facade entry point a workload runs through.
const (
	engineParallel   = "parallel"   // pscluster.RunParallel, virtual fabric
	engineSequential = "sequential" // pscluster.RunSequential
	engineTCP        = "tcp"        // pscluster.RunNode per rank over ListenNet on loopback
)

// NodeGroup is one (node type, count) group of a simulated cluster.
type NodeGroup struct {
	Type  string `json:"type"` // "A" | "B" | "C"
	Count int    `json:"count"`
}

// RenderSpec carries the RenderConfig fields the scenario JSON format
// does not serialize; the child applies them after DecodeScenario.
type RenderSpec struct {
	Width            int     `json:"width"`
	Height           int     `json:"height"`
	Rasterize        bool    `json:"rasterize"`
	CostPerParticle  float64 `json:"cost_per_particle"`
	FrameOverhead    float64 `json:"frame_overhead"`
	BytesPerParticle int     `json:"bytes_per_particle"`
}

// Spec is the generated input of one run: a scenario document plus how
// to run it. It is everything the program under test receives.
type Spec struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Engine   string          `json:"engine"`
	NCalc    int             `json:"ncalc"`
	Net      string          `json:"net"`      // "myrinet" | "fast-ethernet"
	Compiler string          `json:"compiler"` // "gcc" | "icc"
	Nodes    []NodeGroup     `json:"nodes"`
	Render   RenderSpec      `json:"render"`
	Scenario json.RawMessage `json:"scenario"`
}

// scale selects the workload sizes: the full benchmark, or the smoke
// scale the tests drive (tiny populations, ~10 frames).
type scale int

const (
	scaleFull scale = iota
	scaleSmoke
)

// workloadDef describes one workload. Frame counts are fixed, never
// time-based, so every count repeats exactly on one seed; they are
// sized so one timed run lasts about nominalRunSeconds on the 2-core
// reference box on a good day — 4 s when the box is fast, 5.5 s when
// it is slow, which is what keeps a full driver session (136 runs of
// three repetitions) inside its time cap either way.
type workloadDef struct {
	Name string
	Why  string
	// PerSystem × Systems stored particles at steady state.
	PerSystem, Systems int
	Frames             int
	Engine             string
	build              func(w *workloadDef, perSystem, frames int) (pscluster.Scenario, Spec)
}

// nominalRunSeconds is the wall time one timed run is sized for.
const nominalRunSeconds = 5

var workloads = []workloadDef{
	{
		Name:      "snow_virtual",
		Why:       "paper 5.1 snow 8x8000 on a heterogeneous 1B+1A cluster, virtual fabric, raster off: compute-bound, action kernels dominate",
		PerSystem: 8000, Systems: 8, Frames: 200, Engine: engineParallel,
		build: buildSnow,
	},
	{
		Name:      "fountain_tcp",
		Why:       "paper 5.2 fountain 8x500 as 4 RunNode ranks over TCP loopback: latency-bound, ~100 small messages per frame through codec and sockets",
		PerSystem: 500, Systems: 8, Frames: 1100, Engine: engineTCP,
		build: buildFountainTCP,
	},
	{
		Name:      "fountain_raster",
		Why:       "fountain 8x2000, batched schedule, rasterized at 1280x960: render-bound, clear + splat + pixel checksum dominate",
		PerSystem: 2000, Systems: 8, Frames: 190, Engine: engineParallel,
		build: buildFountainRaster,
	},
	{
		Name:      "explosion_voronoi",
		Why:       "clustered explosion 8x8000 under the Voronoi decomposition: OwnerOf, geometry rebalance and mass migration every frame",
		PerSystem: 8000, Systems: 8, Frames: 350, Engine: engineParallel,
		build: buildExplosion,
	},
	{
		Name:      "jets_collide",
		Why:       "head-on jets with CollideParticles and ghost exchange, ~8000 live: store-action path, neighbourhood grid dominates",
		PerSystem: 8000, Systems: 1, Frames: 300, Engine: engineParallel,
		build: buildJets,
	},
	{
		Name:      "snow_seq",
		Why:       "the snow_virtual scenario through RunSequential: plain single-threaded baseline with no fabric, protocol or goroutines",
		PerSystem: 8000, Systems: 8, Frames: 220, Engine: engineSequential,
		build: buildSnowSeq,
	},
}

// The smoke scale: tiny populations, a handful of frames.
const (
	smokePerSystem = 200
	smokeFrames    = 10
)

// frames returns the workload's fixed frame count at a scale.
func (w *workloadDef) frames(sc scale) int {
	if sc == scaleSmoke {
		return smokeFrames
	}
	return w.Frames
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// generate builds the workload's Spec for a seed: the same (workload,
// seed, scale) always yields byte-identical JSON.
func (w *workloadDef) generate(seed uint64, sc scale) ([]byte, error) {
	perSystem := w.PerSystem
	if sc == scaleSmoke {
		perSystem = smokePerSystem
	}
	scn, spec := w.build(w, perSystem, w.frames(sc))
	for i := range scn.Systems {
		scn.Systems[i].Seed += seed
	}
	doc, err := pscluster.EncodeScenario(scn)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	spec.Workload, spec.Seed, spec.Engine = w.Name, seed, w.Engine
	spec.Render = RenderSpec{
		Width: scn.Render.Width, Height: scn.Render.Height, Rasterize: scn.Render.Rasterize,
		CostPerParticle: scn.Render.CostPerParticle, FrameOverhead: scn.Render.FrameOverhead,
		BytesPerParticle: scn.Render.BytesPerParticle,
	}
	spec.Scenario = doc
	return json.MarshalIndent(spec, "", " ")
}

func (w *workloadDef) cfg(perSystem, frames int) experiments.Config {
	return experiments.Config{ParticlesPerSystem: perSystem, Systems: w.Systems, Frames: frames, DT: 0.1}
}

// hetero is the paper's title case in miniature: one fast and one slow
// node on Fast-Ethernet with the ICC rates, so power-proportional
// balancing skews the load between the two calculators.
func hetero(spec *Spec) {
	spec.NCalc, spec.Net, spec.Compiler = 2, "fast-ethernet", "icc"
	spec.Nodes = []NodeGroup{{"B", 1}, {"A", 1}}
}

func buildSnow(w *workloadDef, perSystem, frames int) (pscluster.Scenario, Spec) {
	scn := experiments.Snow(w.cfg(perSystem, frames), pscluster.FiniteSpace, pscluster.DynamicLB)
	var spec Spec
	hetero(&spec)
	return scn, spec
}

func buildSnowSeq(w *workloadDef, perSystem, frames int) (pscluster.Scenario, Spec) {
	scn, spec := buildSnow(w, perSystem, frames)
	// RunSequential on one TypeB node under GCC — the paper's baseline.
	spec.NCalc, spec.Net, spec.Compiler = 0, "", "gcc"
	spec.Nodes = []NodeGroup{{"B", 1}}
	return scn, spec
}

func buildFountainTCP(w *workloadDef, perSystem, frames int) (pscluster.Scenario, Spec) {
	scn := experiments.Fountain(w.cfg(perSystem, frames), pscluster.FiniteSpace, pscluster.DynamicLB)
	var spec Spec
	hetero(&spec)
	return scn, spec
}

func buildFountainRaster(w *workloadDef, perSystem, frames int) (pscluster.Scenario, Spec) {
	scn := experiments.Fountain(w.cfg(perSystem, frames), pscluster.FiniteSpace, pscluster.DynamicLB)
	scn.Schedule = pscluster.BatchedSchedule
	scn.Render.Rasterize = true
	scn.Render.Width, scn.Render.Height = 1280, 960
	spec := Spec{NCalc: 2, Net: "myrinet", Compiler: "gcc", Nodes: []NodeGroup{{"B", 2}}}
	return scn, spec
}

func buildExplosion(w *workloadDef, perSystem, frames int) (pscluster.Scenario, Spec) {
	scn := experiments.ClusteredExplosion(w.cfg(perSystem, frames), pscluster.FiniteSpace, pscluster.DynamicLB)
	scn.Decomp = pscluster.DecompVoronoi
	spec := Spec{NCalc: 2, Net: "myrinet", Compiler: "gcc", Nodes: []NodeGroup{{"B", 4}}}
	return scn, spec
}

// jetLifetimeFrames is KillOld.MaxAge / DT of the jets scenario: the
// live population is 2 × rate × lifetime.
const jetLifetimeFrames = 100

// buildJets is examples/collisions scaled to perSystem live particles.
func buildJets(w *workloadDef, perSystem, frames int) (pscluster.Scenario, Spec) {
	rate := perSystem / (2 * jetLifetimeFrames)
	if rate < 1 {
		rate = 1
	}
	jet := func(x0, x1, v0, v1 float64, color pscluster.Vec3) *pscluster.Source {
		return &pscluster.Source{
			Rate:  rate,
			Pos:   pscluster.BoxDomain{B: pscluster.Box(pscluster.V(x0, -2, -2), pscluster.V(x1, 2, 2))},
			Vel:   pscluster.BoxDomain{B: pscluster.Box(pscluster.V(v0, -1, -1), pscluster.V(v1, 1, 1))},
			Color: pscluster.PointDomain{P: color},
			Size:  0.5, Alpha: 0.9,
		}
	}
	scn := pscluster.Scenario{
		Name: "colliding-jets",
		Systems: []pscluster.System{{
			Name: "jets",
			Seed: 7,
			Actions: []pscluster.Action{
				jet(-40, -38, 18, 24, pscluster.V(1, 0.4, 0.2)),
				jet(38, 40, -24, -18, pscluster.V(0.2, 0.5, 1)),
				&pscluster.CollideParticles{Radius: 1.0, Elasticity: 0.9},
				&pscluster.KillOld{MaxAge: 0.05 * jetLifetimeFrames},
				&pscluster.Move{},
			},
		}},
		Axis:            pscluster.AxisX,
		Space:           pscluster.Box(pscluster.V(-45, -25, -25), pscluster.V(45, 25, 25)),
		Mode:            pscluster.FiniteSpace,
		Frames:          frames,
		DT:              0.05,
		LB:              pscluster.DynamicLB,
		GhostCollisions: true,
	}
	spec := Spec{NCalc: 2, Net: "fast-ethernet", Compiler: "gcc", Nodes: []NodeGroup{{"B", 4}}}
	return scn, spec
}
