// Package core implements the paper's model itself: the manager /
// calculator / image-generator process roles, the per-frame parallel
// phases of Figure 2 and Algorithm 1, static and dynamic load
// balancing, infinite- and finite-space decomposition, and the
// sequential baseline engine the paper's speedups are measured against.
package core

import (
	"errors"
	"fmt"
	"math"

	"pscluster/internal/actions"
	"pscluster/internal/domain"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// InfiniteExtent is the half-width of the default decomposition interval
// used when the simulated space is "infinite" (paper §5.1: with infinite
// space the domains slice a default huge extent, so only the central
// domains ever receive particles — the IS pathology of Table 1).
const InfiniteExtent = 1000.0

// SpaceMode selects between the paper's IS and FS configurations.
type SpaceMode int

// The two space configurations of the evaluation.
const (
	// InfiniteSpace decomposes [-InfiniteExtent, +InfiniteExtent].
	InfiniteSpace SpaceMode = iota
	// FiniteSpace decomposes the scenario's Space box — "restriction of
	// the simulated space to fit exactly the portion that we are using".
	FiniteSpace
)

// String returns "IS" or "FS" as the paper's tables abbreviate.
func (m SpaceMode) String() string {
	if m == InfiniteSpace {
		return "IS"
	}
	return "FS"
}

// LBMode selects static or dynamic load balancing.
type LBMode int

// The balancing modes: the paper's two, plus its future-work proposal.
const (
	// StaticLB keeps the initial equal-size domains for the whole run.
	StaticLB LBMode = iota
	// DynamicLB runs the manager's balancing evaluation every frame.
	DynamicLB
	// DecentralizedLB is the paper's future-work extension ("to
	// decentralize the load balancing management", §6): neighbor pairs
	// exchange load reports directly and apply the pairwise rule
	// symmetrically, with no manager round-trip. Domain tables become
	// eventually consistent — a process that routes a particle on stale
	// boundaries sends it to a neighbor of the true owner, which
	// forwards it the next frame.
	DecentralizedLB
)

// String returns "SLB" / "DLB" / "DeLB".
func (m LBMode) String() string {
	switch m {
	case StaticLB:
		return "SLB"
	case DynamicLB:
		return "DLB"
	default:
		return "DeLB"
	}
}

// DecompMode selects the space-partitioning strategy (ROADMAP item 3).
type DecompMode int

// The decomposition strategies.
const (
	// DecompSlab is the paper's 1-D axis-slab decomposition (§3.1.4) —
	// the default, bit-identical to the pre-strategy engine.
	DecompSlab DecompMode = iota
	// DecompGrid splits space into a 2-D grid in the plane of the split
	// axis and its successor; row and column cuts rebalance
	// independently (arXiv:cs/0405086).
	DecompGrid
	// DecompVoronoi assigns space to the nearest of nCalc sites that
	// drift toward the load centroid (arXiv:1805.05128).
	DecompVoronoi
)

// String returns "slab" / "grid" / "voronoi".
func (m DecompMode) String() string {
	switch m {
	case DecompSlab:
		return "slab"
	case DecompGrid:
		return "grid"
	default:
		return "voronoi"
	}
}

// Schedule selects how the processing of several particle systems is
// combined within one frame (paper §3.3: "there are different ways to
// combine the processing of more than one system. Depending on the
// form used, the processing may be more or less efficient").
type Schedule int

// The two multi-system schedules.
const (
	// PerSystemSchedule runs the full Figure 2 cycle for each system in
	// turn — one exchange barrier and one set of messages per system.
	PerSystemSchedule Schedule = iota
	// BatchedSchedule runs each phase once for all systems: a single
	// creation scatter, one combined exchange, one combined load
	// report / order / dimension broadcast and one render send per
	// frame, amortizing message latencies and barriers across systems.
	BatchedSchedule
)

// String returns "per-system" or "batched".
func (s Schedule) String() string {
	if s == PerSystemSchedule {
		return "per-system"
	}
	return "batched"
}

// System describes one particle system: its identity (the index in the
// scenario's Systems slice, per §3.1.3), its deterministic seed and its
// per-frame action list — the body of Algorithm 1.
type System struct {
	Name    string
	Seed    uint64
	Actions []actions.Action
}

// perParticleWork sums the per-particle costs of the system's property,
// position and store actions — the compute work one particle costs per
// frame (creation is charged separately, per created particle).
func (s *System) perParticleWork() float64 {
	var w float64
	for _, a := range s.Actions {
		if a.Kind() != actions.KindCreate {
			w += a.Cost()
		}
	}
	return w
}

// ScriptEntry schedules a one-shot action — an explosion, a gust, a
// color change — applied to one system at one frame, after the system's
// regular action list. This is the deterministic form of the
// interactive steering the paper's related work motivates (Rodrigues et
// al. [11] steer their molecular dynamics through the master process):
// because the script is part of the scenario, every process applies it
// identically, and sequential and parallel runs stay bit-equivalent.
type ScriptEntry struct {
	Frame  int
	System int
	Action actions.Action
}

// RenderConfig controls the image generator.
type RenderConfig struct {
	// Width and Height of the frame. The engine always accumulates
	// frame checksums; Rasterize additionally performs the actual
	// splatting on the host (experiments turn it off for speed — the
	// virtual render cost is charged either way).
	Width, Height int
	Rasterize     bool
	// CostPerParticle is the virtual work units to splat one particle.
	CostPerParticle float64
	// FrameOverhead is the fixed virtual work per frame (clear, external
	// objects, output).
	FrameOverhead float64
	// BytesPerParticle is the billed wire size of one particle sent to
	// the image generator (positions + color, quantized — far smaller
	// than the full 140-byte exchange record).
	BytesPerParticle int
	// OutputDir, when non-empty and Rasterize is on, makes the image
	// generator write each frame as frame-NNNN.ppm into the directory.
	OutputDir string
	// Perspective renders through the pinhole PerspectiveCamera instead
	// of the default orthographic framing — same space box, eye pulled
	// back along +Z.
	Perspective bool
}

// Scenario is a complete animation description, shared by the
// sequential and parallel engines.
type Scenario struct {
	Name    string
	Systems []System

	// Axis is the domain split axis (§3.1.4).
	Axis geom.Axis
	// Space is the finite simulated space; ignored under InfiniteSpace.
	Space geom.AABB
	Mode  SpaceMode

	Frames int
	DT     float64

	// Bins is the number of sub-domain bins per store (§4).
	Bins int

	// Ratio is the representation ratio R: each stored particle stands
	// for R real ones; compute and communication virtual costs scale by
	// R so reduced-size runs reproduce full-scale timing shape.
	Ratio float64

	LB LBMode
	// LBThreshold and LBMinBatch configure the balancer (§3.2.5).
	LBThreshold float64
	LBMinBatch  int

	// Decomp selects the space-partitioning strategy. DecompSlab (the
	// default) is the paper's 1-D slicing and keeps the engine
	// bit-identical to the pre-strategy code. DecompGrid and
	// DecompVoronoi partition the plane spanned by Axis and its
	// successor axis; under DynamicLB their geometry rebalances toward
	// measured load instead of running the paper's donation protocol.
	Decomp DecompMode
	// DecompStep bounds per-frame geometry movement for the grid and
	// Voronoi strategies, as a fraction of the space extent. Defaults
	// to 0.05; must be in (0, 0.5].
	DecompStep float64

	// Schedule combines the per-frame processing of multiple systems
	// (§3.3). BatchedSchedule requires DynamicLB or StaticLB (the
	// decentralized variant is defined per system).
	Schedule Schedule

	// Script holds one-shot steering actions. Only property and
	// position actions are allowed (creation is the manager's job and
	// store actions need the neighborhood machinery); Validate rejects
	// others.
	Script []ScriptEntry

	// NaivePairing disables the balancer's parity-alternation rule, so
	// evaluation always starts at the first pair and the same pairs are
	// favoured every round — used by the ablation benchmarks.
	NaivePairing bool

	// IgnorePower makes redistribution split loads equally instead of
	// proportional to measured processing power — the ablation for the
	// paper's heterogeneity mechanism.
	IgnorePower bool

	// PipelineFrames lets calculators start frame f+1 before the image
	// generator finishes frame f. The paper's frames are synchronous —
	// each frame ends when its image is generated — so this defaults to
	// false; the ablation benchmarks measure what the overlap would buy.
	PipelineFrames bool

	// GhostCollisions enables the collision-time neighbor exchange of
	// §3.1.4: before an inter-particle action runs, each calculator
	// ships the particles within the action's radius of its domain
	// edges to the adjacent calculators as read-only ghosts, so
	// cross-boundary pairs are detected. The cost is proportional to
	// the boundary band, not the population (contrast the Sims
	// baseline's full broadcast). Cross-boundary impulses are resolved
	// symmetrically by both owners, which can reorder multi-collision
	// resolution relative to the sequential engine — runs with
	// GhostCollisions trade bit-equivalence for physical completeness.
	GhostCollisions bool

	// ExchangeScanWork is the per-particle, per-frame work a calculator
	// spends on Figure 2's "Preparation of the Structures" phase:
	// out-of-domain detection, sub-domain re-binning and exchange
	// buffer packing. The sequential baseline (the original,
	// un-restructured library) does not pay it — it is the parallel
	// library's intrinsic per-particle overhead, and the main
	// calibration lever for matching the paper's parallel efficiency.
	// Defaults to 4.0 work units (comparable to the physics itself,
	// which is a handful of flops per particle against a scan-and-copy
	// of a 140-byte record).
	ExchangeScanWork float64

	Render RenderConfig

	// CollectParticles asks the engines to return the final particle
	// multiset (tests compare sequential vs parallel).
	CollectParticles bool
}

// Validate checks the scenario and fills defaults in place.
func (s *Scenario) Validate() error {
	if len(s.Systems) == 0 {
		return fmt.Errorf("core: scenario %q has no systems", s.Name)
	}
	if s.Frames <= 0 {
		return fmt.Errorf("core: scenario %q has %d frames", s.Name, s.Frames)
	}
	if !(s.DT > 0) || math.IsInf(s.DT, 1) {
		return fmt.Errorf("core: scenario %q has DT %g, want finite and > 0", s.Name, s.DT)
	}
	if s.Mode == FiniteSpace && s.Space.Extent(s.Axis) <= 0 {
		return fmt.Errorf("core: scenario %q has empty finite space along %v", s.Name, s.Axis)
	}
	if s.Bins == 0 {
		s.Bins = 16
	}
	if s.Bins < 0 {
		return fmt.Errorf("core: scenario %q has %d bins", s.Name, s.Bins)
	}
	if s.Ratio == 0 {
		s.Ratio = 1
	}
	if !(s.Ratio >= 1) || math.IsInf(s.Ratio, 1) {
		return fmt.Errorf("core: scenario %q has ratio %g, want finite and >= 1", s.Name, s.Ratio)
	}
	if s.LBThreshold == 0 {
		s.LBThreshold = 0.15
	}
	// The dynamic balancer panics on a threshold that is not positive.
	if s.LBThreshold < 0 {
		return fmt.Errorf("core: scenario %q has LB threshold %g, want > 0", s.Name, s.LBThreshold)
	}
	if s.LBMinBatch == 0 {
		s.LBMinBatch = 16
	}
	if s.Render.Width == 0 {
		s.Render.Width = 64
	}
	if s.Render.Height == 0 {
		s.Render.Height = 64
	}
	if s.Render.Width < 0 || s.Render.Height < 0 {
		return fmt.Errorf("core: scenario %q has a %dx%d frame", s.Name, s.Render.Width, s.Render.Height)
	}
	if s.Render.CostPerParticle == 0 {
		s.Render.CostPerParticle = 0.5
	}
	if s.Render.FrameOverhead == 0 {
		s.Render.FrameOverhead = 1000
	}
	if s.Render.BytesPerParticle == 0 {
		s.Render.BytesPerParticle = 32
	}
	if s.ExchangeScanWork == 0 {
		s.ExchangeScanWork = 4.0
	}
	// Work charged to a virtual clock: NaN or +Inf poisons the run's
	// times, a negative amount panics the clock.
	for _, w := range []struct {
		name string
		v    float64
	}{
		{"exchange scan work", s.ExchangeScanWork},
		{"render cost per particle", s.Render.CostPerParticle},
		{"render frame overhead", s.Render.FrameOverhead},
	} {
		if !(w.v >= 0) || math.IsInf(w.v, 1) {
			return fmt.Errorf("core: scenario %q has %s %g, want finite and >= 0", s.Name, w.name, w.v)
		}
	}
	if s.Schedule == BatchedSchedule && s.LB == DecentralizedLB {
		return fmt.Errorf("core: scenario %q: the batched schedule does not support decentralized balancing", s.Name)
	}
	if s.DecompStep == 0 {
		s.DecompStep = 0.05
	}
	if s.Decomp != DecompSlab {
		if !(s.DecompStep > 0) || s.DecompStep > 0.5 {
			return fmt.Errorf("core: scenario %q: decomposition step %g outside (0, 0.5]", s.Name, s.DecompStep)
		}
		if s.LB == DecentralizedLB {
			return fmt.Errorf("core: scenario %q: decentralized balancing is defined on slab neighbor pairs; use slab or DLB", s.Name)
		}
		if s.Mode == FiniteSpace && s.Space.Extent(crossAxis(s.Axis)) <= 0 {
			return fmt.Errorf("core: scenario %q: %s decomposition needs finite space along %v too",
				s.Name, s.Decomp, crossAxis(s.Axis))
		}
	}
	for i, e := range s.Script {
		if e.Frame < 0 || e.Frame >= s.Frames {
			return fmt.Errorf("core: script entry at frame %d outside [0, %d)", e.Frame, s.Frames)
		}
		if e.System < 0 || e.System >= len(s.Systems) {
			return fmt.Errorf("core: script entry for system %d outside [0, %d)", e.System, len(s.Systems))
		}
		if err := checkAction(e.Action); err != nil {
			return fmt.Errorf("core: script entry %d %w", i, err)
		}
		if k := e.Action.Kind(); k != actions.KindProperty && k != actions.KindPosition {
			return fmt.Errorf("core: script action %q has kind %v; only property and position actions can be scripted",
				e.Action.Name(), k)
		}
	}
	for i, sys := range s.Systems {
		if len(sys.Actions) == 0 {
			return fmt.Errorf("core: system %d (%s) has no actions", i, sys.Name)
		}
		for _, a := range sys.Actions {
			if err := checkAction(a); err != nil {
				return fmt.Errorf("core: system %d %w", i, err)
			}
		}
	}
	return nil
}

// checkAction checks an action against the rules of its row in
// actions.Kinds (an action of no row has none); the error reads after
// the name of what holds the action.
func checkAction(a actions.Action) error {
	if a == nil {
		return errors.New("has a nil action")
	}
	if row := actions.Kinds[a.Name()]; row != nil {
		b, ps := row(a)
		if b == nil {
			return fmt.Errorf("action %q is a nil %T or not of its kind", a.Name(), a)
		}
		for _, p := range ps {
			if err := p.Check(); err != nil {
				return fmt.Errorf("action %q %w", a.Name(), err)
			}
		}
	}
	return nil
}

// scriptedFor returns the scripted actions for (frame, system), in
// script order.
func (s *Scenario) scriptedFor(frame, si int) []actions.ParticleAction {
	var out []actions.ParticleAction
	for _, e := range s.Script {
		if e.Frame == frame && e.System == si {
			if pa, ok := e.Action.(actions.ParticleAction); ok {
				out = append(out, pa)
			}
		}
	}
	return out
}

// SpaceInterval returns the [lo, hi] interval the domain tables slice.
func (s *Scenario) SpaceInterval() (lo, hi float64) {
	if s.Mode == InfiniteSpace {
		return -InfiniteExtent, InfiniteExtent
	}
	return s.Space.Min.Component(s.Axis), s.Space.Max.Component(s.Axis)
}

// SpaceBox returns the AABB the non-slab decompositions partition:
// the scenario's Space under FiniteSpace, the default huge cube under
// InfiniteSpace (the 3-D analog of SpaceInterval).
func (s *Scenario) SpaceBox() geom.AABB {
	if s.Mode == InfiniteSpace {
		return geom.Box(
			geom.V(-InfiniteExtent, -InfiniteExtent, -InfiniteExtent),
			geom.V(InfiniteExtent, InfiniteExtent, InfiniteExtent),
		)
	}
	return s.Space
}

// crossAxis returns the second split axis of the 2-D strategies: the
// successor of the primary axis (X→Y, Y→Z, Z→X).
func crossAxis(a geom.Axis) geom.Axis { return (a + 1) % 3 }

// newDecomposition builds the initial decomposition of one particle
// system for nCalc calculators.
func (s *Scenario) newDecomposition(nCalc int) (domain.Decomposition, error) {
	switch s.Decomp {
	case DecompGrid:
		lo, hi := s.SpaceInterval()
		box := s.SpaceBox()
		b := crossAxis(s.Axis)
		return domain.NewGrid(s.Axis, b,
			lo, hi, box.Min.Component(b), box.Max.Component(b),
			nCalc, s.DecompStep)
	case DecompVoronoi:
		box := s.SpaceBox()
		// The step bound is a fraction of the partitioned plane's
		// diagonal, the natural length scale for site motion.
		ext := geom.V(box.Extent(s.Axis), box.Extent(crossAxis(s.Axis)), 0)
		return domain.NewVoronoi(box, s.Axis, crossAxis(s.Axis), nCalc, ext.Len()*s.DecompStep)
	default:
		lo, hi := s.SpaceInterval()
		return domain.NewEqual(s.Axis, lo, hi, nCalc)
	}
}

// newStore builds one (system, process) particle store over [lo, hi).
func (s *Scenario) newStore(lo, hi float64) *particle.ColumnStore {
	return particle.NewColumnStore(s.Axis, lo, hi, s.Bins)
}
