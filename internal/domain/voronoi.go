package domain

import (
	"encoding/binary"
	"fmt"
	"math"

	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
)

// Voronoi assigns each position to the nearest of n sites (ties to the
// lowest rank), after the SPH-with-Voronoi-subdomains decomposition of
// arXiv:1805.05128: instead of shifting fixed cut planes, the sites
// themselves drift toward the load centroid during Rebalance, so the
// cells chase particle clusters wherever they condense. Site motion is
// bounded per call (maxStep) and clamped into bounds, keeping replays
// deterministic.
type Voronoi struct {
	sites   []geom.Vec3
	bounds  geom.AABB
	maxStep float64
}

// NewVoronoi seeds n sites on a SplitFactors lattice of cell centers
// in the axisA × axisB plane of bounds (third component at the bounds
// center), matching the initial layout of the equivalent grid. maxStep
// bounds per-call site movement.
func NewVoronoi(bounds geom.AABB, axisA, axisB geom.Axis, n int, maxStep float64) (*Voronoi, error) {
	if axisA == axisB {
		return nil, fmt.Errorf("domain: voronoi axes must differ, got %s twice", axisA)
	}
	if n < 1 {
		return nil, fmt.Errorf("domain: need at least one site, got %d", n)
	}
	if !(bounds.Extent(axisA) > 0) || !(bounds.Extent(axisB) > 0) {
		return nil, fmt.Errorf("domain: voronoi bounds empty along %s or %s", axisA, axisB)
	}
	if !(maxStep > 0) {
		return nil, fmt.Errorf("domain: voronoi max step %g must be positive", maxStep)
	}
	cols, rows := SplitFactors(n)
	loA := bounds.Min.Component(axisA)
	loB := bounds.Min.Component(axisB)
	wA := bounds.Extent(axisA) / float64(cols)
	wB := bounds.Extent(axisB) / float64(rows)
	sites := make([]geom.Vec3, n)
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			s := bounds.Center()
			s = s.WithComponent(axisA, loA+wA*(float64(col)+0.5))
			s = s.WithComponent(axisB, loB+wB*(float64(row)+0.5))
			sites[row*cols+col] = s
		}
	}
	return &Voronoi{sites: sites, bounds: bounds, maxStep: maxStep}, nil
}

// N returns the number of sites.
func (v *Voronoi) N() int { return len(v.sites) }

// Kind identifies the Voronoi strategy.
func (v *Voronoi) Kind() Kind { return KindVoronoi }

// Sites returns a read-only view of the site positions. Callers must
// not mutate or retain the slice across Rebalance calls.
func (v *Voronoi) Sites() []geom.Vec3 { return v.sites }

// OwnerOf returns the rank of the nearest site (squared distance,
// strict comparison: ties go to the lowest rank). Called once per
// particle per exchange in the non-slab migration path.
func (v *Voronoi) OwnerOf(p geom.Vec3) int {
	best := 0
	bestD := p.Sub(v.sites[0]).Len2()
	for i := 1; i < len(v.sites); i++ {
		if d := p.Sub(v.sites[i]).Len2(); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// NeighborsOf returns every other rank, ascending. Voronoi cell
// adjacency changes as sites drift, and with single-digit rank counts
// the conservative all-pairs graph costs a handful of empty band
// messages — far cheaper than maintaining an incremental Delaunay
// triangulation and re-proving its determinism.
func (v *Voronoi) NeighborsOf(rank int) []int {
	ns := make([]int, 0, len(v.sites)-1)
	for i := range v.sites {
		if i != rank {
			ns = append(ns, i)
		}
	}
	return ns
}

// NeighborBand returns the part of rank's cell within radius of the
// rank/neighbor bisector plane.
func (v *Voronoi) NeighborBand(rank, neighbor int, radius float64) Region {
	if neighbor < 0 || neighbor >= len(v.sites) || neighbor == rank {
		return noSpace{}
	}
	return bisectorBand{self: v.sites[rank], other: v.sites[neighbor], radius: radius}
}

// Rebalance drifts under-loaded sites toward the load centroid (see
// loadbalance.DriftSites).
func (v *Voronoi) Rebalance(loads []float64) bool {
	return loadbalance.DriftSites(v.sites, loads, v.maxStep, v.bounds)
}

// AppendWire appends the Voronoi wire form: header, site count, max
// step, bounds, sites.
func (v *Voronoi) AppendWire(dst []byte) []byte {
	dst = appendWireHeader(dst, KindVoronoi, 4+8+48+24*len(v.sites))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.sites)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.maxStep))
	dst = appendVec(dst, v.bounds.Min)
	dst = appendVec(dst, v.bounds.Max)
	for _, s := range v.sites {
		dst = appendVec(dst, s)
	}
	return dst
}

func appendVec(dst []byte, p geom.Vec3) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Z))
}

func readVec(p []byte) (geom.Vec3, bool) {
	v := geom.Vec3{
		X: math.Float64frombits(binary.LittleEndian.Uint64(p)),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		Z: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
	}
	return v, finite(v.X) && finite(v.Y) && finite(v.Z)
}

func decodeVoronoi(p []byte) (Decomposition, error) {
	if len(p) < 60 {
		return nil, fmt.Errorf("domain: voronoi payload too short: %d bytes", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 1 || n > maxWireRanks {
		return nil, fmt.Errorf("domain: voronoi site count %d out of range", n)
	}
	if want := 60 + 24*n; len(p) != want {
		return nil, fmt.Errorf("domain: voronoi payload %d bytes, want %d", len(p), want)
	}
	maxStep := math.Float64frombits(binary.LittleEndian.Uint64(p[4:]))
	if !finite(maxStep) || maxStep < 0 {
		return nil, fmt.Errorf("domain: voronoi max step %g invalid", maxStep)
	}
	min, ok := readVec(p[12:])
	if !ok {
		return nil, fmt.Errorf("domain: voronoi bounds min not finite")
	}
	max, ok := readVec(p[36:])
	if !ok {
		return nil, fmt.Errorf("domain: voronoi bounds max not finite")
	}
	if max.X < min.X || max.Y < min.Y || max.Z < min.Z {
		return nil, fmt.Errorf("domain: voronoi bounds inverted")
	}
	sites := make([]geom.Vec3, n)
	for i := range sites {
		s, ok := readVec(p[60+24*i:])
		if !ok {
			return nil, fmt.Errorf("domain: voronoi site %d not finite", i)
		}
		sites[i] = s
	}
	return &Voronoi{sites: sites, bounds: geom.AABB{Min: min, Max: max}, maxStep: maxStep}, nil
}
