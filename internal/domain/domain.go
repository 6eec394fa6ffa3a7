// Package domain implements the spatial decomposition of the model
// (paper §3.1.4): the simulated space is divided, along one axis, into n
// slices — one per calculator process — and *every* process knows every
// boundary, so a particle that leaves its domain can be sent straight to
// its new owner instead of being broadcast. Each particle system has its
// own, independently-balanced table of domains.
package domain

import (
	"fmt"
	"sort"

	"pscluster/internal/geom"
)

// Table holds the n+1 boundaries of the n domains of one particle
// system. edges[i] and edges[i+1] delimit the domain of calculator i;
// domain i owns the half-open interval [edges[i], edges[i+1]), except
// that the outermost domains extend to ±infinity: a particle left of
// edges[0] belongs to calculator 0 and one at or right of edges[n] to
// calculator n-1. (Particles may fly out of any finite space; ownership
// must still be total.)
type Table struct {
	axis  geom.Axis
	edges []float64
}

// NewEqual returns the initial decomposition of Figure 1: n domains of
// equal size covering [lo, hi] along axis.
func NewEqual(axis geom.Axis, lo, hi float64, n int) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("domain: need at least one domain, got %d", n)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("domain: empty space [%g, %g]", lo, hi)
	}
	edges := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		edges[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	// Guard against floating-point drift at the last edge.
	edges[n] = hi
	return &Table{axis: axis, edges: edges}, nil
}

// FromEdges builds a table directly from boundary values, which must be
// non-decreasing.
func FromEdges(axis geom.Axis, edges []float64) (*Table, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("domain: need at least 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] < edges[i-1] {
			return nil, fmt.Errorf("domain: edges not monotonic at %d: %g < %g",
				i, edges[i], edges[i-1])
		}
	}
	return &Table{axis: axis, edges: append([]float64(nil), edges...)}, nil
}

// N returns the number of domains.
func (t *Table) N() int { return len(t.edges) - 1 }

// Axis returns the split axis.
func (t *Table) Axis() geom.Axis { return t.axis }

// Edges returns a read-only view of the boundary values. Callers must
// not mutate or retain the slice across SetBoundary/Rebalance calls;
// the encode hot paths call this once per LB round per system, so a
// defensive copy here is pure garbage.
func (t *Table) Edges() []float64 { return t.edges }

// Bounds returns the [lo, hi) interval of domain i.
func (t *Table) Bounds(i int) (lo, hi float64) { return t.edges[i], t.edges[i+1] }

// Width returns the extent of domain i.
func (t *Table) Width(i int) float64 { return t.edges[i+1] - t.edges[i] }

// Owner returns the calculator index owning the given axis coordinate.
// Coordinates outside the space clamp to the outermost domains, and
// zero-width domains (fully donated by load balancing) never own
// anything.
func (t *Table) Owner(c float64) int { return ownerIn(t.edges, c) }

// ownerIn is Owner over a raw edge list; the grid decomposition reuses
// it once per axis.
func ownerIn(edges []float64, c float64) int {
	n := len(edges) - 1
	// First edge strictly greater than c; the owning domain is the one
	// before it.
	i := sort.SearchFloat64s(edges, c)
	// SearchFloat64s returns the first index with edges[i] >= c; for a
	// coordinate equal to an edge the particle belongs to the domain
	// starting there (half-open intervals), so step over ties.
	for i < len(edges) && edges[i] == c {
		i++
	}
	i-- // domain index
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	// A zero-width domain cannot own a coordinate: its interval is
	// empty. Ties at collapsed edges resolve to the nearest non-empty
	// domain on the side the coordinate falls.
	for i > 0 && edges[i] == edges[i+1] && c < edges[i] {
		i--
	}
	for i < n-1 && edges[i] == edges[i+1] {
		i++
	}
	return i
}

// OwnerOf returns the owner of a particle position.
func (t *Table) OwnerOf(p geom.Vec3) int { return t.Owner(p.Component(t.axis)) }

// SetBoundary moves the boundary between domains i-1 and i (that is,
// edges[i], for 1 <= i <= N-1) to x. The move must keep the edge list
// monotonic: x is clamped into [edges[i-1], edges[i+1]].
func (t *Table) SetBoundary(i int, x float64) error {
	if i < 1 || i > t.N()-1 {
		return fmt.Errorf("domain: boundary index %d out of range [1, %d]", i, t.N()-1)
	}
	if x < t.edges[i-1] {
		x = t.edges[i-1]
	}
	if x > t.edges[i+1] {
		x = t.edges[i+1]
	}
	t.edges[i] = x
	return nil
}

// Clone returns an independent copy of the table.
func (t *Table) Clone() *Table {
	return &Table{axis: t.axis, edges: append([]float64(nil), t.edges...)}
}

// String renders the table like the paper's Figure 1, e.g.
// "[-10 | -5 | 0 | 5 | 10] along X".
func (t *Table) String() string {
	s := "["
	for i, e := range t.edges {
		if i > 0 {
			s += " | "
		}
		s += fmt.Sprintf("%g", e)
	}
	return s + "] along " + t.axis.String()
}
