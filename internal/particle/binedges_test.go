package particle

import (
	"bytes"
	"math"
	"testing"

	"pscluster/internal/geom"
)

// The partitions decide "still in bin bi" by the exact edges binEdges
// derives from binIndex, and "inside [lo, hi)" on the slab path by the
// same test. These tests hold the edges to binIndex itself, and the
// partitions to the binIndex-per-particle scan they replaced.

// storeOver returns an empty store over exactly [lo, hi) with n bins,
// bypassing NewColumnStore's widening so a collapsed interval (lo == hi,
// as DonateBatch can leave it) and widths of a few ulps are reachable.
func storeOver(lo, hi float64, n int) *ColumnStore {
	s := NewColumnStore(geom.AxisX, 0, 1, n)
	s.lo, s.hi = lo, hi
	return s
}

// ulps returns x stepped k floats toward +Inf (k > 0) or −Inf (k < 0).
func ulps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// edgeProbes returns coordinates around every edge of s (±3 ulps), the
// non-finite values and signed zeros, and draws from r inside and
// around [lo, hi].
func edgeProbes(s *ColumnStore, r *geom.RNG) []float64 {
	probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, e := range s.binEdges() {
		for k := -3; k <= 3; k++ {
			probes = append(probes, ulps(e, k))
		}
	}
	for i := 0; i < 32; i++ {
		probes = append(probes, r.Range(s.lo, s.hi))
	}
	w := s.hi - s.lo
	for i := 0; i < 8; i++ {
		probes = append(probes, s.lo-w*r.Float64(), s.hi+w*r.Float64())
	}
	return probes
}

// checkBinEdges holds s's edges to binIndex: e[0] = lo, e[n] = hi, the
// edges non-decreasing; a probe c in [e[k], e[k+1]) is one binIndex
// files in bin k, a probe in [lo, hi) lies in exactly one such interval
// (every edge is the least of its bin), and a NaN or out-of-interval
// probe lies in none, so it never takes the partitions' fast path.
func checkBinEdges(t *testing.T, s *ColumnStore, probes []float64) {
	t.Helper()
	e := s.binEdges()
	n := len(s.bins)
	if len(e) != n+1 || !sameFloat(e[0], s.lo) || !sameFloat(e[n], s.hi) {
		t.Fatalf("[%v, %v) n=%d: edges %v do not span the interval", s.lo, s.hi, n, e)
	}
	for k := 0; k < n; k++ {
		if e[k] > e[k+1] {
			t.Fatalf("[%v, %v) n=%d: edges decrease at %d: %v", s.lo, s.hi, n, k, e)
		}
	}
	for _, c := range probes {
		in := 0
		for k := 0; k < n; k++ {
			if c >= e[k] && c < e[k+1] {
				in++
				if bi := s.binIndex(c); bi != k {
					t.Fatalf("[%v, %v) n=%d: c=%v in [e[%d], e[%d]) = [%v, %v) but binIndex = %d",
						s.lo, s.hi, n, c, k, k+1, e[k], e[k+1], bi)
				}
			}
		}
		inside := c >= s.lo && c < s.hi
		if want := map[bool]int{false: 0, true: 1}[inside]; in != want {
			t.Fatalf("[%v, %v) n=%d: c=%v lies in %d edge intervals, want %d (edges %v)",
				s.lo, s.hi, n, c, in, want, e)
		}
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// partitionOracle is PartitionBatch (keep == nil) or PartitionOwnedBatch
// as they were written before the exact edges: binIndex on every
// survivor.
func partitionOracle(s *ColumnStore, keep func(geom.Vec3) bool) *Batch {
	var out, moved Batch
	for bi := range s.bins {
		b := &s.bins[bi]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			if b.Dead[i] {
				continue
			}
			c := b.Pos[i].Component(s.axis)
			switch {
			case keep == nil && (c < s.lo || c >= s.hi), keep != nil && !keep(b.Pos[i]):
				out.AppendIndex(b, i)
			case s.binIndex(c) != bi:
				moved.AppendIndex(b, i)
			default:
				if kept != i {
					b.copyElem(kept, i)
				}
				kept++
			}
		}
		b.Truncate(kept)
	}
	s.count = 0
	for i := range s.bins {
		s.count += s.bins[i].Len()
	}
	s.AddBatch(&moved)
	return &out
}

// checkPartitionsMatchOracle files particles at the probes, moves each to
// another probe, kills some, and runs both partitions against the
// oracle on identical copies: leavers, bins and every field must match.
func checkPartitionsMatchOracle(t *testing.T, lo, hi float64, n int, probes []float64, r *geom.RNG) {
	t.Helper()
	fill := func() *ColumnStore {
		s := storeOver(lo, hi, n)
		pr := geom.NewRNG(r.Save())
		for range probes {
			s.Add(Particle{Pos: geom.V(probes[pr.Intn(len(probes))], pr.Range(-1, 1), 0), Rand: pr.Uint64()})
		}
		for bi := range s.bins {
			b := &s.bins[bi]
			for i := range b.Pos {
				b.Pos[i].X = probes[pr.Intn(len(probes))]
				b.Dead[i] = pr.Intn(8) == 0
			}
		}
		return s
	}
	keep := func(p geom.Vec3) bool { return p.Y < 0.5 }
	for _, owned := range []bool{false, true} {
		got, want := fill(), fill()
		var out, wantOut *Batch
		if owned {
			out, wantOut = got.PartitionOwnedBatch(keep), partitionOracle(want, keep)
		} else {
			out, wantOut = got.PartitionBatch(), partitionOracle(want, nil)
		}
		if !bytes.Equal(out.EncodeWire(), wantOut.EncodeWire()) {
			t.Fatalf("[%v, %v) n=%d owned=%v: leavers differ from the binIndex scan", lo, hi, n, owned)
		}
		if got.Len() != want.Len() || !bytes.Equal(EncodeBatch(got.All()), EncodeBatch(want.All())) {
			t.Fatalf("[%v, %v) n=%d owned=%v: store differs from the binIndex scan", lo, hi, n, owned)
		}
		for bi := range got.bins {
			if got.bins[bi].Len() != want.bins[bi].Len() {
				t.Fatalf("[%v, %v) n=%d owned=%v: bin %d holds %d, binIndex scan %d",
					lo, hi, n, owned, bi, got.bins[bi].Len(), want.bins[bi].Len())
			}
		}
	}
}

// checkInterval runs both checks over one store shape.
func checkInterval(t *testing.T, lo, hi float64, n int, seed uint64) {
	t.Helper()
	r := geom.NewRNG(seed)
	s := storeOver(lo, hi, n)
	probes := edgeProbes(s, r)
	checkBinEdges(t, s, probes)
	checkPartitionsMatchOracle(t, lo, hi, n, probes, r)
}

// binEdgeCases are the interval shapes the edges must survive: plain
// domains, a collapsed interval, a 1e-9 width where it is a few ulps,
// magnitudes near 1e300, a width that overflows to +Inf, and infinite
// bounds.
var binEdgeCases = []struct {
	name   string
	lo, hi float64
	n      int
}{
	{"unit-16", 0, 100, 16},
	{"one-bin", -3, 7, 1},
	{"negative-64", -1e3, -1, 64},
	{"straddle-zero-7", -0.3, 0.7, 7},
	{"neg-zero-lo", math.Copysign(0, -1), 1, 5},
	{"collapsed", 5, 5, 8},
	{"collapsed-zero", 0, 0, 3},
	{"1e-9-wide-at-1e6", 1e6, 1e6 + 1e-9, 16},
	{"1e-9-wide-at-minus-1e6", -1e6 - 1e-9, -1e6, 64},
	{"near-1e300", 1e300, 1.5e300, 64},
	{"straddle-1e300", -1e300, 1e300, 33},
	{"width-overflows", -1.7e308, 1.7e308, 16},
	{"infinite-hi", 0, math.Inf(1), 4},
	{"infinite-lo", math.Inf(-1), 0, 4},
}

func TestBinEdges(t *testing.T) {
	for i, tc := range binEdgeCases {
		t.Run(tc.name, func(t *testing.T) { checkInterval(t, tc.lo, tc.hi, tc.n, uint64(i)) })
	}
	// Random intervals over the whole float64 range of magnitudes and
	// widths, n from 1 to 64.
	r := geom.NewRNG(41)
	for i := 0; i < 300; i++ {
		lo := r.Range(-1, 1) * math.Pow(10, r.Range(-12, 300))
		hi := lo + math.Pow(10, r.Range(-12, 300))*r.Float64()
		checkInterval(t, lo, hi, 1+r.Intn(64), r.Uint64())
	}
}

// The edges follow the interval: after a Resize and after a donation
// moves an edge, the next partition rebuilds them.
func TestBinEdgesFollowTheInterval(t *testing.T) {
	s := mkStore(8)
	fillUniform(s, 400, 3)
	partition(s)
	for step, move := range []func(){
		func() { s.Resize(10, 60) },
		func() { s.DonateBatch(50, LowSide) },
		func() { s.DonateBatch(50, HighSide) },
		func() { s.Resize(-20, 20) },
	} {
		move()
		partition(s)
		lo, hi := s.Bounds()
		fresh := storeOver(lo, hi, len(s.bins))
		got, want := s.binEdges(), fresh.binEdges()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("step %d: edge %d = %v, a store built for [%v, %v) has %v", step, k, got[k], lo, hi, want[k])
			}
		}
	}
}

// FuzzBinEdges drives the edge checks and the oracle partitions with
// arbitrary intervals and bin counts.
func FuzzBinEdges(f *testing.F) {
	for i, tc := range binEdgeCases {
		f.Add(tc.lo, tc.hi, uint8(tc.n-1), uint64(i))
	}
	f.Fuzz(func(t *testing.T, lo, hi float64, n uint8, seed uint64) {
		if hi < lo {
			lo, hi = hi, lo
		}
		checkInterval(t, lo, hi, 1+int(n%64), seed)
	})
}

// binIndex files a coordinate far outside the interval, an infinity or
// a NaN in the edge bin its sign points to (NaN in bin 0), however the
// platform converts an out-of-range float to int; a store whose
// interval DonateBatch collapsed to lo == hi files every c > lo in its
// last bin.
func TestBinIndexClampsFarCoordinates(t *testing.T) {
	check := func(s *ColumnStore, c float64, want int) {
		t.Helper()
		if got := s.binIndex(c); got != want {
			lo, hi := s.Bounds()
			t.Errorf("[%v, %v) with %d bins: binIndex(%v) = %d, want %d", lo, hi, s.NumBins(), c, got, want)
		}
	}
	s := mkStore(8) // [0, 100)
	for _, tc := range []struct {
		c    float64
		want int
	}{
		{math.Inf(1), 7}, {1e300, 7}, {150, 7}, {99.9, 7},
		{50, 4}, {0, 0}, {-5, 0}, {-1e300, 0}, {math.Inf(-1), 0}, {math.NaN(), 0},
	} {
		check(s, tc.c, tc.want)
	}

	// Both particles sit past hi, so donating one from the low side
	// moves lo up to hi.
	col := mkStore(8)
	addAll(col, []Particle{{Pos: geom.V(150, 0, 0)}, {Pos: geom.V(150, 0, 0)}})
	col.DonateBatch(1, LowSide)
	lo, hi := col.Bounds()
	if lo != hi {
		t.Fatalf("donation left [%v, %v), want a collapsed interval", lo, hi)
	}
	check(col, hi+1, 7)
	check(col, math.Inf(1), 7)
	check(col, lo, 0)
	check(col, lo-1, 0)
}
