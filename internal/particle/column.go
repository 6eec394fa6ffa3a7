package particle

import (
	"fmt"
	"math"
	"sort"

	"pscluster/internal/geom"
)

// ColumnStore holds the particles of one (system, calculator) pair: the
// slice of the system's particles whose coordinate along the split axis
// falls in the process's domain interval [Lo, Hi).
//
// Instead of one flat vector, the domain is broken into sub-domain bins,
// each stored separately (paper §4): exchange detection only touches the
// particles that actually moved out of the interval, and load-balancing
// donation only needs to sort the edge bins rather than the whole
// domain. Each bin keeps its particles as a Batch of per-field columns,
// the layout the batch kernels and the columnar wire codec stream over
// without per-particle copies.
//
// The store's order is part of the engine's bit-identity: particles are
// always visited bins in ascending order, insertion order within a bin,
// and every structural operation below documents the order of what it
// returns and re-adds.
type ColumnStore struct {
	axis   geom.Axis
	lo, hi float64
	bins   []Batch
	count  int

	// binned reports that the bins were built for exactly [lo, hi):
	// set by NewColumnStore and Resize, cleared by DonateBatch, which
	// moves an edge without re-binning.
	binned bool

	// Scratch kept across frames so the steady-state frame allocates
	// nothing proportional to the particle count: spare is the bin set
	// Resize re-bins into and swaps with bins, moved holds the
	// partitions' bin-to-bin movers, sorted is DonateBatch's partial-bin
	// sort buffer.
	spare  []Batch
	moved  Batch
	sorted []Particle

	// edges are the bins' exact boundaries, built by binEdges for the
	// interval (edgeLo, edgeHi) and rebuilt when lo or hi has moved.
	edges          []float64
	edgeLo, edgeHi float64

	// The batches the store hands out, cleared and refilled on every
	// call: leavers is the result of PartitionBatch and
	// PartitionOwnedBatch, donated of DonateBatch.
	leavers, donated Batch
}

// NewColumnStore returns an empty columnar store for the interval
// [lo, hi) along axis, split into nbins sub-domains.
func NewColumnStore(axis geom.Axis, lo, hi float64, nbins int) *ColumnStore {
	if nbins < 1 {
		panic("particle: NewColumnStore needs at least one bin")
	}
	if hi < lo {
		panic(fmt.Sprintf("particle: NewColumnStore with reversed interval [%g, %g)", lo, hi))
	}
	lo, hi = widenDegenerate(lo, hi)
	return &ColumnStore{axis: axis, lo: lo, hi: hi, bins: make([]Batch, nbins), binned: true}
}

// minWidth is the smallest domain extent a store represents. Load
// balancing can donate a process's entire domain, collapsing its
// interval to a point; the store keeps a sliver so binning stays
// well-defined (no particle can fall in it, since ownership is decided
// by the global domain table).
const minWidth = 1e-9

func widenDegenerate(lo, hi float64) (float64, float64) {
	if hi-lo < minWidth {
		hi = lo + minWidth
	}
	return lo, hi
}

// Axis returns the split axis.
func (s *ColumnStore) Axis() geom.Axis { return s.axis }

// Bounds returns the domain interval [lo, hi).
func (s *ColumnStore) Bounds() (lo, hi float64) { return s.lo, s.hi }

// Len returns the number of stored particles.
func (s *ColumnStore) Len() int { return s.count }

// NumBins returns the number of sub-domain bins.
func (s *ColumnStore) NumBins() int { return len(s.bins) }

// BinCounts returns the particle count of each sub-domain bin.
func (s *ColumnStore) BinCounts() []int {
	c := make([]int, len(s.bins))
	for i := range s.bins {
		c[i] = s.bins[i].Len()
	}
	return c
}

// binIndex maps an axis coordinate to a bin, clamping coordinates at the
// domain edges into the edge bins so that Add never loses a particle. It
// is the one definition of a bin: the partitions' exact edges
// (binEdges) are derived from it. The clamp tests x in float and keeps
// int(x) only for x inside (0, n), because Go leaves the conversion to
// the implementation when its operand is NaN or past int's range: +Inf,
// a coordinate far past hi and any c > lo in a store whose interval
// DonateBatch collapsed to a point all land in the last bin on every
// architecture; −Inf and NaN land in bin 0.
func (s *ColumnStore) binIndex(c float64) int {
	n := len(s.bins)
	x := (c - s.lo) / (s.hi - s.lo) * float64(n)
	// Both overrides compile to conditional moves on amd64, so a scan
	// that clamps many particles into the edge bins mispredicts nothing.
	i := int(x)
	if x >= float64(n) {
		i = n - 1
	}
	if !(x > 0) {
		i = 0
	}
	return i
}

// binEdges returns the bins' exact boundaries e[0..n] for the current
// interval: e[0] = lo, e[n] = hi, and e[k] the least float64 in
// [lo, hi] that binIndex files in bin k or above (hi if there is none).
// On [lo, hi] every step of binIndex — subtract lo, divide by
// hi − lo > 0, multiply by n, truncate, clamp — rounds monotonically,
// so a coordinate c in [lo, hi) is in bin k exactly when
// e[k] <= c < e[k+1]. The partitions test that instead of dividing per
// particle; a NaN c fails it. A collapsed interval (lo == hi) has only
// empty edge intervals. The edges are cached against the (lo, hi) they
// were built for, which NewColumnStore, Resize and DonateBatch change.
func (s *ColumnStore) binEdges() []float64 {
	if s.edges != nil && s.edgeLo == s.lo && s.edgeHi == s.hi {
		return s.edges
	}
	n := len(s.bins)
	if s.edges == nil {
		s.edges = make([]float64, n+1)
	}
	e := s.edges
	e[0], e[n] = s.lo, s.hi
	for k := 1; k < n; k++ {
		e[k] = s.leastInBin(k)
	}
	s.edgeLo, s.edgeHi = s.lo, s.hi
	return e
}

// leastInBin returns the least float64 c in [lo, hi] with
// binIndex(c) >= k, or hi if there is none, for k >= 1. It bisects over
// the floats' ordered bit patterns, at most 64 steps, keeping
// binIndex(a) < k <= binIndex(b); binIndex(lo) is 0.
func (s *ColumnStore) leastInBin(k int) float64 {
	if s.binIndex(s.hi) < k {
		return s.hi
	}
	a, b := orderedBits(s.lo), orderedBits(s.hi)
	for uint64(b-a) > 1 {
		m := a + int64(uint64(b-a)/2)
		if s.binIndex(fromOrderedBits(m)) >= k {
			b = m
		} else {
			a = m
		}
	}
	return fromOrderedBits(b)
}

// orderedBits maps a non-NaN float64 to an int64 that orders as the
// float does, −0 and +0 both to 0; fromOrderedBits inverts it (to +0).
func orderedBits(x float64) int64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return -int64(b &^ (1 << 63))
	}
	return int64(b)
}

func fromOrderedBits(o int64) float64 {
	if o < 0 {
		return math.Float64frombits(uint64(-o) | 1<<63)
	}
	return math.Float64frombits(uint64(o))
}

// Add stores one particle, binning it by its axis coordinate.
func (s *ColumnStore) Add(p Particle) {
	i := s.binIndex(p.Pos.Component(s.axis))
	s.bins[i].Append(p)
	s.count++
}

// AddBatch stores every particle of b, moving columns directly.
func (s *ColumnStore) AddBatch(b *Batch) {
	for i := range b.Pos {
		bi := s.binIndex(b.Pos[i].Component(s.axis))
		s.bins[bi].AppendIndex(b, i)
	}
	s.count += b.Len()
}

// EachBatch calls fn once per non-empty bin with the bin's live
// columns — the zero-copy hot path. fn may mutate column values but
// must not grow or shrink the batch.
func (s *ColumnStore) EachBatch(fn func(*Batch)) {
	for bi := range s.bins {
		if s.bins[bi].Len() == 0 {
			continue
		}
		fn(&s.bins[bi])
	}
}

// Bin returns bin bi's live columns (possibly empty). The indexable,
// closure-free form of EachBatch: allocation-sensitive encoders walk
// bins by index so nothing escapes. The pointer aliases the live bin.
func (s *ColumnStore) Bin(bi int) *Batch { return &s.bins[bi] }

// All returns a copy of every stored particle, in deterministic order.
func (s *ColumnStore) All() []Particle {
	out := make([]Particle, 0, s.count)
	for bi := range s.bins {
		b := &s.bins[bi]
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.At(i))
		}
	}
	return out
}

// Clear removes all particles, keeping the domain interval.
func (s *ColumnStore) Clear() {
	for i := range s.bins {
		s.bins[i].Clear()
	}
	s.count = 0
}

// RemoveDead drops every particle whose Dead flag is set and returns
// how many were removed. Compaction preserves order within each bin.
func (s *ColumnStore) RemoveDead() int {
	removed := 0
	for bi := range s.bins {
		b := &s.bins[bi]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			if b.Dead[i] {
				removed++
				continue
			}
			if kept != i {
				b.copyElem(kept, i)
			}
			kept++
		}
		b.Truncate(kept)
	}
	s.count -= removed
	return removed
}

// Live returns the number of stored particles whose Dead flag is clear:
// what Len will be once the dead are dropped, by RemoveDead or by a
// partition. It reads only the Dead column.
func (s *ColumnStore) Live() int {
	dead := 0
	for bi := range s.bins {
		for _, d := range s.bins[bi].Dead {
			if d {
				dead++
			}
		}
	}
	return s.count - dead
}

// PartitionBatch removes and returns every particle whose axis
// coordinate has left the domain interval, and re-bins the particles
// that moved between sub-domains. This is the end-of-frame step of the
// model (§3.1.5): the returned particles must be sent to their new owner
// processes. Dead particles are dropped in the same scan — neither
// returned, re-binned nor kept — so the result and the store are
// exactly those of RemoveDead followed by PartitionBatch. Leavers are
// returned in store order; survivors keep their relative order within a
// bin, and the re-binned ones are appended to their new bins after the
// scan, again in store order. The returned batch is the store's own,
// valid until the next PartitionBatch or PartitionOwnedBatch call.
func (s *ColumnStore) PartitionBatch() *Batch {
	out := &s.leavers
	out.Clear()
	moved := &s.moved
	moved.Clear()
	e := s.binEdges()
	for bi := range s.bins {
		b := &s.bins[bi]
		elo, ehi := e[bi], e[bi+1]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			if b.Dead[i] {
				continue
			}
			c := b.Pos[i].Component(s.axis)
			switch {
			case c >= elo && c < ehi:
				// Inside [lo, hi) and still in bin bi (binEdges).
			case c < s.lo || c >= s.hi:
				out.AppendIndex(b, i)
				continue
			case s.binIndex(c) != bi:
				// Moved to another sub-domain: re-add after the scan to
				// avoid disturbing the bins being compacted.
				moved.AppendIndex(b, i)
				continue
			}
			if kept != i {
				b.copyElem(kept, i)
			}
			kept++
		}
		b.Truncate(kept)
	}
	s.count = 0
	for i := range s.bins {
		s.count += s.bins[i].Len()
	}
	s.AddBatch(moved)
	return out
}

// PartitionOwnedBatch removes and returns every particle for which
// keep reports false, re-binning survivors that moved between
// sub-domains — PartitionBatch generalized from the axis-interval test
// to an arbitrary ownership predicate (non-slab decompositions own
// regions no single interval describes). Dropping the dead, scan,
// output and re-add orders, and the returned batch's lifetime, are
// PartitionBatch's; keep is never called on a dead particle.
func (s *ColumnStore) PartitionOwnedBatch(keep func(geom.Vec3) bool) *Batch {
	out := &s.leavers
	out.Clear()
	moved := &s.moved
	moved.Clear()
	e := s.binEdges()
	for bi := range s.bins {
		b := &s.bins[bi]
		elo, ehi := e[bi], e[bi+1]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			if b.Dead[i] {
				continue
			}
			c := b.Pos[i].Component(s.axis)
			switch {
			case !keep(b.Pos[i]):
				out.AppendIndex(b, i)
				continue
			case c >= elo && c < ehi:
				// Still in bin bi (binEdges).
			case s.binIndex(c) != bi:
				moved.AppendIndex(b, i)
				continue
			}
			if kept != i {
				b.copyElem(kept, i)
			}
			kept++
		}
		b.Truncate(kept)
	}
	s.count = 0
	for i := range s.bins {
		s.count += s.bins[i].Len()
	}
	s.AddBatch(moved)
	return out
}

// Resize changes the domain interval to [lo, hi). When the bins were
// already built for that interval — the steady state of dynamic load
// balancing, which installs its domain table every frame whether or not
// an edge moved — it returns without touching a particle: particles
// whose positions changed since the last binning are re-binned by
// PartitionBatch, as they are in a frame without a Resize. Otherwise
// every stored particle is re-binned in store order, into a spare bin
// set kept across calls and swapped in, so a boundary move copies each
// particle once and allocates nothing once the spare has grown.
// Particles now outside the interval are clamped into the edge bins;
// callers exchange them explicitly via PartitionBatch or DonateBatch
// before or after resizing.
func (s *ColumnStore) Resize(lo, hi float64) {
	if hi < lo {
		panic(fmt.Sprintf("particle: Resize with reversed interval [%g, %g)", lo, hi))
	}
	lo, hi = widenDegenerate(lo, hi)
	if s.binned && lo == s.lo && hi == s.hi {
		return
	}
	s.lo, s.hi, s.binned = lo, hi, true
	if s.spare == nil {
		s.spare = make([]Batch, len(s.bins))
	}
	for bi := range s.bins {
		b := &s.bins[bi]
		for i := range b.Pos {
			s.spare[s.binIndex(b.Pos[i].Component(s.axis))].AppendIndex(b, i)
		}
		b.Clear()
	}
	s.bins, s.spare = s.spare, s.bins
}

// Side selects the edge of the domain a donation leaves from.
type Side int

// The two donation directions.
const (
	LowSide  Side = iota // toward the left (lower-rank) neighbor
	HighSide             // toward the right (higher-rank) neighbor
)

// String returns "low" or "high".
func (sd Side) String() string {
	if sd == LowSide {
		return "low"
	}
	return "high"
}

// DonateBatch removes the n particles nearest the given edge of the
// domain and returns them together with the new domain boundary that
// separates the donated span from the kept span (paper §3.2.5: "the
// particles must be ordered in accordance to the axis chosen for the
// division of the domains ... based on the ordering and selection of the
// particles, it is possible to define the new dimensions of the
// domains").
//
// The new boundary lies halfway between the last donated particle and
// the first kept one. If n >= Len, everything is donated and the
// boundary collapses to the opposite edge. Bins are walked from the
// donating edge: whole bins are consumed unsorted, in insertion order,
// and only the bin the cut lands in is sorted along the axis — the
// reason the store is binned at all. The kept remainder of that bin
// stays in sorted order. The returned batch is the store's own, valid
// until the next DonateBatch call.
func (s *ColumnStore) DonateBatch(n int, side Side) (*Batch, float64) {
	donated := &s.donated
	donated.Clear()
	if n <= 0 {
		if side == LowSide {
			return donated, s.lo
		}
		return donated, s.hi
	}
	if n >= s.count {
		for bi := range s.bins {
			donated.AppendBatch(&s.bins[bi])
		}
		s.Clear()
		if side == LowSide {
			return donated, s.hi
		}
		return donated, s.lo
	}

	remaining := n
	var lastDonatedC, firstKeptC float64
	for k := range s.bins {
		bi := k // walk the bins from the donating edge
		if side == HighSide {
			bi = len(s.bins) - 1 - k
		}
		b := &s.bins[bi]
		if b.Len() == 0 {
			continue
		}
		if b.Len() <= remaining {
			donated.AppendBatch(b)
			remaining -= b.Len()
			b.Clear()
			if remaining == 0 {
				// Cut falls exactly on a bin edge; find the extreme
				// donated coordinate and the next kept coordinate.
				lastDonatedC = extremeC(donated, s.axis, side)
				firstKeptC = s.nearestKeptC(side)
				break
			}
			continue
		}
		// Partial bin: materialize, sort along the axis and split.
		ps := s.sorted[:0]
		for i := 0; i < b.Len(); i++ {
			ps = append(ps, b.At(i))
		}
		s.sorted = ps
		sort.Slice(ps, func(i, j int) bool {
			ci := ps[i].Pos.Component(s.axis)
			cj := ps[j].Pos.Component(s.axis)
			if side == LowSide {
				return ci < cj
			}
			return ci > cj
		})
		donated.AppendSlice(ps[:remaining])
		b.Clear()
		b.AppendSlice(ps[remaining:])
		lastDonatedC = donated.Pos[donated.Len()-1].Component(s.axis)
		firstKeptC = b.Pos[0].Component(s.axis)
		remaining = 0
		break
	}
	s.count -= donated.Len()
	newBoundary := (lastDonatedC + firstKeptC) / 2
	// Keep the boundary inside the old interval even with numeric ties.
	if newBoundary <= s.lo {
		newBoundary = s.lo
	}
	if newBoundary >= s.hi {
		newBoundary = s.hi
	}
	// The edge moves but the kept particles stay in the bins built for
	// the old interval: the next Resize must re-bin even if it is handed
	// these very bounds.
	if side == LowSide {
		s.lo = newBoundary
	} else {
		s.hi = newBoundary
	}
	s.binned = false
	return donated, newBoundary
}

// extremeC returns the donated coordinate closest to the cut: the
// maximum for a low-side donation, the minimum for a high-side one.
func extremeC(b *Batch, axis geom.Axis, side Side) float64 {
	c := b.Pos[0].Component(axis)
	for i := 1; i < b.Len(); i++ {
		ci := b.Pos[i].Component(axis)
		if (side == LowSide && ci > c) || (side == HighSide && ci < c) {
			c = ci
		}
	}
	return c
}

// nearestKeptC returns the kept coordinate closest to the donating edge.
func (s *ColumnStore) nearestKeptC(side Side) float64 {
	first := true
	var c float64
	for bi := range s.bins {
		b := &s.bins[bi]
		for i := 0; i < b.Len(); i++ {
			ci := b.Pos[i].Component(s.axis)
			if first || (side == LowSide && ci < c) || (side == HighSide && ci > c) {
				c = ci
				first = false
			}
		}
	}
	if first {
		// No kept particles; DonateBatch handles n >= count before
		// reaching here, but stay safe.
		if side == LowSide {
			return s.hi
		}
		return s.lo
	}
	return c
}
