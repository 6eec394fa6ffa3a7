package domain

import (
	"encoding/binary"
	"fmt"
	"math"

	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
)

// This file lifts the 1-D slab assumption of the paper (§3.1.4) into a
// strategy interface (ROADMAP item 3). The slab Table stays the
// paper-faithful default; the 2-D grid (grid.go, after the dynamic MD
// decomposition of arXiv:cs/0405086) and the Voronoi-site mode
// (voronoi.go, after the SPH subdomains of arXiv:1805.05128) are
// alternatives for workloads where one-axis slicing degenerates.

// Kind identifies a decomposition strategy on the wire.
type Kind uint8

const (
	// KindSlab is the paper's 1-D axis-slab Table.
	KindSlab Kind = 1
	// KindGrid is the 2-D grid with independently moving row/column cuts.
	KindGrid Kind = 2
	// KindVoronoi is the nearest-site decomposition with drifting sites.
	KindVoronoi Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindSlab:
		return "slab"
	case KindGrid:
		return "grid"
	case KindVoronoi:
		return "voronoi"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Region is a predicate over space: the shape of a ghost band. The
// engine only ever asks "is this particle inside", so regions stay
// abstract instead of committing to intervals (slab bands are
// half-spaces, grid bands are box shells, Voronoi bands are bisector
// slabs).
type Region interface {
	Contains(p geom.Vec3) bool
}

// Decomposition is the space-partitioning strategy of one particle
// system: a total assignment of space to nCalc calculators, the
// neighbor graph used for ghost exchange, and the rebalancing rule
// that moves the partition geometry toward measured load.
//
// Implementations must be deterministic: NeighborsOf returns ranks in
// ascending order, Rebalance moves by a bounded step per call, and
// AppendWire round-trips bit-exactly through Decode so every process
// reconstructs the identical table.
type Decomposition interface {
	// N returns the number of calculators the space is divided among.
	N() int
	// Kind identifies the strategy for wire dispatch.
	Kind() Kind
	// OwnerOf returns the calculator index owning a position. Ownership
	// is total: positions outside any finite extent still map to a rank.
	OwnerOf(p geom.Vec3) int
	// NeighborsOf returns the ranks adjacent to rank, ascending, self
	// excluded. Ghost bands are exchanged exactly with these.
	NeighborsOf(rank int) []int
	// NeighborBand returns the portion of rank's domain within radius of
	// its boundary toward neighbor — the ghost band shipped to neighbor.
	NeighborBand(rank, neighbor int, radius float64) Region
	// Rebalance moves the partition geometry toward the per-rank loads
	// (one non-negative weight per calculator) by a bounded step, and
	// reports whether anything moved.
	Rebalance(loads []float64) bool
	// AppendWire appends the deterministic wire encoding (see Decode)
	// and returns the extended slice.
	AppendWire(dst []byte) []byte
}

// --- regions ---

type allSpace struct{}

func (allSpace) Contains(geom.Vec3) bool { return true }

type noSpace struct{}

func (noSpace) Contains(geom.Vec3) bool { return false }

// axisCut is the half-space on one side of an axis-aligned plane:
// below selects c < x, otherwise c >= x. The asymmetry mirrors the
// half-open domain intervals, so a band never double-counts particles
// sitting exactly on a cut.
type axisCut struct {
	axis  geom.Axis
	x     float64
	below bool
}

func (a axisCut) Contains(p geom.Vec3) bool {
	c := p.Component(a.axis)
	if a.below {
		return c < a.x
	}
	return c >= a.x
}

// cutBand is the conjunction of half-spaces (an axis-aligned shell
// face for the grid decomposition).
type cutBand []axisCut

func (b cutBand) Contains(p geom.Vec3) bool {
	for _, c := range b {
		if !c.Contains(p) {
			return false
		}
	}
	return true
}

// bisectorBand selects points of self's Voronoi cell within radius of
// the self/other bisector plane: the signed distance from p to the
// bisector, positive toward other, is (|p-other|² - |p-self|²)/(2·|other-self|);
// the band is where that distance is below radius. Membership in
// self's cell is the caller's concern (the engine filters by owner
// first), so the band itself is just the slab against the bisector.
type bisectorBand struct {
	self, other geom.Vec3
	radius      float64
}

func (b bisectorBand) Contains(p geom.Vec3) bool {
	l := b.other.Sub(b.self).Len()
	if l == 0 {
		return true
	}
	d := (p.Dist(b.other)*p.Dist(b.other) - p.Dist(b.self)*p.Dist(b.self)) / (2 * l)
	return d < b.radius
}

// --- slab strategy methods on Table ---

// slabRebalanceFrac bounds a slab Rebalance step to this fraction of
// the total extent per call, matching the bounded-step discipline of
// the grid and Voronoi strategies. (The engine's paper-faithful DLB
// path never calls this — it derives boundaries from donated particles
// per §3.2.5 — but the strategy must still be self-contained.)
const slabRebalanceFrac = 0.05

// Kind identifies the slab strategy.
func (t *Table) Kind() Kind { return KindSlab }

// NeighborsOf returns the adjacent slab ranks: rank±1 where they exist.
func (t *Table) NeighborsOf(rank int) []int {
	ns := make([]int, 0, 2)
	if rank > 0 {
		ns = append(ns, rank-1)
	}
	if rank < t.N()-1 {
		ns = append(ns, rank+1)
	}
	return ns
}

// NeighborBand returns the half-space of rank's slab within radius of
// the shared edge with neighbor.
func (t *Table) NeighborBand(rank, neighbor int, radius float64) Region {
	switch neighbor {
	case rank - 1:
		return axisCut{axis: t.axis, x: t.edges[rank] + radius, below: true}
	case rank + 1:
		return axisCut{axis: t.axis, x: t.edges[rank+1] - radius, below: false}
	default:
		return noSpace{}
	}
}

// Rebalance shifts the interior edges toward the heavier side by at
// most slabRebalanceFrac of the total extent.
func (t *Table) Rebalance(loads []float64) bool {
	step := (t.edges[t.N()] - t.edges[0]) * slabRebalanceFrac
	return loadbalance.ShiftCuts(t.edges, loads, step)
}

// AppendWire appends the slab wire form: header, axis, edge count,
// edges.
func (t *Table) AppendWire(dst []byte) []byte {
	dst = appendWireHeader(dst, KindSlab, 1+4+8*len(t.edges))
	dst = append(dst, byte(t.axis))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.edges)))
	for _, e := range t.edges {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e))
	}
	return dst
}

// --- wire codec ---

// Wire layout: [u32 total size incl. this header][u8 kind][payload].
// All integers little-endian, floats as IEEE-754 bits, matching the
// proto.go codecs. The leading size makes domain blobs self-sizing so
// they can ride inside counted sequences (multi-decomp payloads).

const wireHeaderSize = 5

// maxWireRanks caps decoded rank counts; real clusters are single
// digits, so anything bigger is a corrupt or hostile payload.
const maxWireRanks = 1 << 16

func appendWireHeader(dst []byte, k Kind, payload int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(wireHeaderSize+payload))
	return append(dst, byte(k))
}

// Encode returns the wire encoding of a decomposition.
func Encode(d Decomposition) []byte { return d.AppendWire(nil) }

// WireSize reads the total size of the wire blob starting at b. It is
// the size fn for decodeCountedSeq-style framing; callers must ensure
// len(b) >= 4.
func WireSize(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

// Decode parses a wire blob produced by AppendWire/Encode, validating
// every field (sizes, finiteness, monotonicity) so a corrupt or
// hostile payload yields an error instead of a broken table.
func Decode(b []byte) (Decomposition, error) {
	if len(b) < wireHeaderSize {
		return nil, fmt.Errorf("domain: wire blob too short: %d bytes", len(b))
	}
	if sz := WireSize(b); sz != len(b) {
		return nil, fmt.Errorf("domain: wire size %d != blob size %d", sz, len(b))
	}
	kind := Kind(b[wireHeaderSize-1])
	p := b[wireHeaderSize:]
	switch kind {
	case KindSlab:
		return decodeSlab(p)
	case KindGrid:
		return decodeGrid(p)
	case KindVoronoi:
		return decodeVoronoi(p)
	default:
		return nil, fmt.Errorf("domain: unknown decomposition kind %d", uint8(kind))
	}
}

func decodeSlab(p []byte) (Decomposition, error) {
	if len(p) < 5 {
		return nil, fmt.Errorf("domain: slab payload too short: %d bytes", len(p))
	}
	axis := geom.Axis(p[0])
	if axis > geom.AxisZ {
		return nil, fmt.Errorf("domain: slab axis %d out of range", p[0])
	}
	n := int(binary.LittleEndian.Uint32(p[1:]))
	if n < 2 || n > maxWireRanks {
		return nil, fmt.Errorf("domain: slab edge count %d out of range", n)
	}
	if want := 5 + 8*n; len(p) != want {
		return nil, fmt.Errorf("domain: slab payload %d bytes, want %d", len(p), want)
	}
	edges := make([]float64, n)
	for i := range edges {
		edges[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[5+8*i:]))
		if !finite(edges[i]) {
			return nil, fmt.Errorf("domain: slab edge %d not finite", i)
		}
	}
	t, err := FromEdges(axis, edges)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
