package domain

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"pscluster/internal/geom"
)

func mustSlab(t *testing.T, n int) *Table {
	t.Helper()
	tab, err := NewEqual(geom.AxisX, -10, 10, n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func mustGrid(t *testing.T, n int) *Grid {
	t.Helper()
	g, err := NewGrid(geom.AxisX, geom.AxisY, -10, 10, -20, 20, n, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustVoronoi(t *testing.T, n int) *Voronoi {
	t.Helper()
	v, err := NewVoronoi(geom.Box(geom.V(-10, -20, -5), geom.V(10, 20, 5)),
		geom.AxisX, geom.AxisY, n, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSplitFactors(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 3: {1, 3}, 4: {2, 2}, 6: {2, 3},
		7: {1, 7}, 9: {3, 3}, 12: {3, 4}, 16: {4, 4},
	}
	for n, want := range cases {
		cols, rows := SplitFactors(n)
		if cols != want[0] || rows != want[1] {
			t.Errorf("SplitFactors(%d) = %d×%d, want %d×%d", n, cols, rows, want[0], want[1])
		}
		if cols*rows != n {
			t.Errorf("SplitFactors(%d) drops ranks: %d×%d", n, cols, rows)
		}
	}
}

// Every strategy's wire form must round-trip to a deeply equal table
// and re-encode to the identical bytes — the broadcast protocol relies
// on every process reconstructing the same geometry.
func TestWireRoundTrip(t *testing.T) {
	decomps := map[string]Decomposition{
		"slab":    mustSlab(t, 4),
		"grid":    mustGrid(t, 6),
		"voronoi": mustVoronoi(t, 5),
	}
	for name, d := range decomps {
		t.Run(name, func(t *testing.T) {
			wire := Encode(d)
			if WireSize(wire) != len(wire) {
				t.Fatalf("self-reported size %d != %d", WireSize(wire), len(wire))
			}
			got, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d, got) {
				t.Fatalf("round trip changed the table:\nwant %#v\ngot  %#v", d, got)
			}
			if re := Encode(got); !bytes.Equal(wire, re) {
				t.Fatal("re-encode is not byte-identical")
			}
			if got.Kind() != d.Kind() || got.N() != d.N() {
				t.Fatalf("kind/N drifted: %v/%d", got.Kind(), got.N())
			}
		})
	}
}

// A rebalanced table must round-trip too (moved cuts, drifted sites).
func TestWireRoundTripAfterRebalance(t *testing.T) {
	g := mustGrid(t, 4)
	v := mustVoronoi(t, 4)
	loads := []float64{10, 1, 1, 1}
	g.Rebalance(loads)
	v.Rebalance(loads)
	for name, d := range map[string]Decomposition{"grid": g, "voronoi": v} {
		got, err := Decode(Encode(d))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(d, got) {
			t.Fatalf("%s: rebalanced table did not round-trip", name)
		}
	}
}

// corrupt returns a copy of b with the byte at off xored.
func corrupt(b []byte, off int, x byte) []byte {
	c := append([]byte(nil), b...)
	c[off] ^= x
	return c
}

// putF64 overwrites the float64 at off in a copy of b.
func putF64(b []byte, off int, f float64) []byte {
	c := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(c[off:], math.Float64bits(f))
	return c
}

// TestDecodeCorruptPayloads drives Decode with systematically damaged
// blobs: every one must fail cleanly, never panic, never return a
// half-built table.
func TestDecodeCorruptPayloads(t *testing.T) {
	slab := Encode(mustSlab(t, 4))
	grid := Encode(mustGrid(t, 6))
	voro := Encode(mustVoronoi(t, 4))

	cases := map[string][]byte{
		"empty":            {},
		"short header":     slab[:3],
		"truncated":        slab[:len(slab)-1],
		"extended":         append(append([]byte(nil), slab...), 0),
		"size too small":   corrupt(slab, 0, 0xFF),
		"unknown kind":     corrupt(slab, 4, 0x7F),
		"kind zero":        corrupt(slab, 4, byte(KindSlab)),
		"slab bad axis":    corrupt(slab, 5, 0x40),
		"slab count zero":  corrupt(slab, 6, byte(len(mustSlab(t, 4).Edges()))),
		"slab huge count":  corrupt(slab, 8, 0xFF),
		"slab NaN edge":    putF64(slab, 10, math.NaN()),
		"slab +Inf edge":   putF64(slab, 10, math.Inf(1)),
		"slab unsorted":    putF64(slab, 10, 99), // first edge above the rest
		"grid equal axes":  corrupt(grid, 6, byte(geom.AxisX)^byte(geom.AxisY)),
		"grid bad axis":    corrupt(grid, 5, 0x40),
		"grid count zero":  corrupt(grid, 7, 3),
		"grid huge count":  corrupt(grid, 9, 0xFF),
		"grid NaN step":    putF64(grid, 15, math.NaN()),
		"grid neg step":    putF64(grid, 15, -1),
		"grid NaN cut":     putF64(grid, 31, math.NaN()),
		"grid unsorted":    putF64(grid, 31, 99),
		"voronoi no sites": corrupt(voro, 5, 4),
		"voronoi huge n":   corrupt(voro, 7, 0xFF),
		"voronoi NaN step": putF64(voro, 9, math.NaN()),
		"voronoi neg step": putF64(voro, 9, -2),
		"voronoi NaN min":  putF64(voro, 17, math.NaN()),
		"voronoi inverted": putF64(voro, 41, -1e9), // bounds max below min
		"voronoi NaN site": putF64(voro, 65, math.NaN()),
	}
	for name, blob := range cases {
		if d, err := Decode(blob); err == nil {
			t.Errorf("%s: decoded without error to %T", name, d)
		}
	}
	// Sanity: the pristine blobs still decode.
	for name, blob := range map[string][]byte{"slab": slab, "grid": grid, "voronoi": voro} {
		if _, err := Decode(blob); err != nil {
			t.Fatalf("pristine %s blob rejected: %v", name, err)
		}
	}
}

// Ownership must be total (any point in R³ maps to a valid rank) and
// agree with the band asymmetry: a point is never in its own cell's
// band toward a neighbor that owns it. OwnerOf runs per particle per
// exchange, so it must not allocate either.
func TestOwnershipTotal(t *testing.T) {
	decomps := map[string]Decomposition{
		"slab":    mustSlab(t, 4),
		"grid":    mustGrid(t, 6),
		"voronoi": mustVoronoi(t, 5),
	}
	for name, d := range decomps {
		for x := -50.0; x <= 50; x += 7.3 {
			for y := -50.0; y <= 50; y += 11.1 {
				p := geom.V(x, y, x*0.1)
				o := d.OwnerOf(p)
				if o < 0 || o >= d.N() {
					t.Fatalf("%s: owner %d for %v outside [0,%d)", name, o, p, d.N())
				}
			}
		}
		owner := 0
		if n := testing.AllocsPerRun(20, func() { owner += d.OwnerOf(geom.V(3, -4, 1)) }); n != 0 {
			t.Errorf("%s: OwnerOf allocates %v objects per call, want 0", name, n)
		}
	}
}

func TestGridNeighbors(t *testing.T) {
	g := mustGrid(t, 6) // 2 cols × 3 rows; rank = row*2 + col
	cases := map[int][]int{
		0: {1, 2, 3},
		1: {0, 2, 3},
		2: {0, 1, 3, 4, 5},
		3: {0, 1, 2, 4, 5},
		4: {2, 3, 5},
		5: {2, 3, 4},
	}
	for rank, want := range cases {
		got := g.NeighborsOf(rank)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("neighbors of %d: %v, want %v", rank, got, want)
		}
	}
}

func TestSlabNeighbors(t *testing.T) {
	tab := mustSlab(t, 4)
	for rank, want := range map[int][]int{
		0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2},
	} {
		if got := tab.NeighborsOf(rank); !reflect.DeepEqual(got, want) {
			t.Errorf("neighbors of %d: %v, want %v", rank, got, want)
		}
	}
}

func TestVoronoiNeighborsAllPairs(t *testing.T) {
	v := mustVoronoi(t, 4)
	if got := v.NeighborsOf(2); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("neighbors of 2: %v", got)
	}
}

// The band regions must contain exactly the near-boundary points.
func TestNeighborBands(t *testing.T) {
	// Slab over [-10,10] with 4 ranks: rank 1 owns [-5,0).
	tab := mustSlab(t, 4)
	band := tab.NeighborBand(1, 2, 1.0)
	if !band.Contains(geom.V(-0.5, 0, 0)) {
		t.Error("slab: point near right edge not in band toward rank 2")
	}
	if band.Contains(geom.V(-3, 0, 0)) {
		t.Error("slab: interior point in band")
	}
	if tab.NeighborBand(1, 3, 1).Contains(geom.V(0, 0, 0)) {
		t.Error("slab: non-neighbor band not empty")
	}

	// Grid 2×3 over [-10,10]×[-20,20]: rank 0 = col 0, row 0
	// ([-10,0) × [-20,-20+40/3)). Its right-edge band toward rank 1.
	g := mustGrid(t, 6)
	right := g.NeighborBand(0, 1, 1.0)
	if !right.Contains(geom.V(-0.5, -10, 0)) {
		t.Error("grid: point near column cut not in band")
	}
	if right.Contains(geom.V(-5, -10, 0)) {
		t.Error("grid: interior point in column band")
	}
	// Diagonal band toward rank 3 (col 1, row 1): corner square.
	diag := g.NeighborBand(0, 3, 1.0)
	corner := geom.V(-0.5, -20+40.0/3-0.5, 0)
	if !diag.Contains(corner) {
		t.Error("grid: corner point not in diagonal band")
	}
	if diag.Contains(geom.V(-0.5, -19, 0)) {
		t.Error("grid: face point in diagonal band")
	}

	// Voronoi: a point close to the bisector is in the band.
	v := mustVoronoi(t, 2) // sites at y = ∓10 (1×2 lattice along Y)
	b := v.NeighborBand(0, 1, 1.0)
	if !b.Contains(geom.V(0, -0.3, 0)) {
		t.Error("voronoi: near-bisector point not in band")
	}
	if b.Contains(geom.V(0, -9, 0)) {
		t.Error("voronoi: deep interior point in band")
	}
	if v.NeighborBand(0, 0, 1).Contains(geom.V(0, 0, 0)) {
		t.Error("voronoi: self band not empty")
	}
}

// Rebalance must move geometry toward load, deterministically and
// bounded.
func TestGridRebalanceShiftsCuts(t *testing.T) {
	g := mustGrid(t, 4) // 2×2, col cut at 0, row cut at 0
	before0, before1 := g.colCuts[1], g.rowCuts[1]
	if !g.Rebalance([]float64{10, 0, 0, 0}) { // all load in (col 0, row 0)
		t.Fatal("rebalance reported no movement")
	}
	// The cuts move toward the heavy side, shrinking its cell.
	if g.colCuts[1] >= before0 {
		t.Errorf("column cut did not move toward the heavy column: %g", g.colCuts[1])
	}
	if g.rowCuts[1] >= before1 {
		t.Errorf("row cut did not move toward the heavy row: %g", g.rowCuts[1])
	}
	if d := before0 - g.colCuts[1]; d > g.stepA+1e-12 {
		t.Errorf("column cut moved %g, beyond step bound %g", d, g.stepA)
	}
	if g.Rebalance([]float64{1, 1, 1, 1}) && g.colCuts[1] != g.colCuts[1] {
		t.Error("balanced load moved a cut")
	}
	if g.Rebalance(nil) {
		t.Error("wrong-length loads moved the grid")
	}
}

func TestVoronoiRebalanceDriftsSites(t *testing.T) {
	v := mustVoronoi(t, 2)
	s0, s1 := v.sites[0], v.sites[1]
	// All load at site 0: the idle site 1 drifts toward it.
	if !v.Rebalance([]float64{10, 0}) {
		t.Fatal("rebalance reported no movement")
	}
	if v.sites[0] != s0 {
		t.Error("loaded site moved")
	}
	moved := v.sites[1].Sub(s1).Len()
	if moved <= 0 || moved > v.maxStep+1e-12 {
		t.Errorf("idle site moved %g, want within (0, %g]", moved, v.maxStep)
	}
	if v.sites[1].Dist(s0) >= s1.Dist(s0) {
		t.Error("idle site did not move toward the load")
	}
	if v.Rebalance([]float64{1}) {
		t.Error("wrong-length loads moved the sites")
	}
}

func TestSlabRebalanceShiftsEdges(t *testing.T) {
	tab := mustSlab(t, 4)
	before := append([]float64(nil), tab.Edges()...)
	if !tab.Rebalance([]float64{10, 0, 0, 0}) {
		t.Fatal("rebalance reported no movement")
	}
	if tab.Edges()[1] >= before[1] {
		t.Error("edge 1 did not move toward the heavy slab")
	}
	if tab.Edges()[0] != before[0] || tab.Edges()[4] != before[4] {
		t.Error("outer edges moved")
	}
}

// Edges must be a read-only view, not a copy (the hot path reads it
// every frame).
func TestEdgesIsView(t *testing.T) {
	tab := mustSlab(t, 4)
	e := tab.Edges()
	if &e[0] != &tab.edges[0] {
		t.Error("Edges() copies the slice")
	}
	if n := testing.AllocsPerRun(20, func() { e = tab.Edges() }); n != 0 {
		t.Errorf("Edges() allocates %v objects per call, want 0", n)
	}
}

// FuzzDecodeDomainWire drives the wire decoder with arbitrary bytes:
// never panic, and any accepted blob must re-encode byte-identically
// (a decode/encode fixed point — the broadcast invariant).
func FuzzDecodeDomainWire(f *testing.F) {
	slab, _ := NewEqual(geom.AxisY, -1, 1, 3)
	grid, _ := NewGrid(geom.AxisZ, geom.AxisX, 0, 4, -2, 2, 4, 0.25)
	voro, _ := NewVoronoi(geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 8)), geom.AxisX, geom.AxisY, 3, 0.5)
	f.Add(Encode(slab))
	f.Add(Encode(grid))
	f.Add(Encode(voro))
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(d)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted blob is not a codec fixed point:\nin  %x\nout %x", data, re)
		}
		if d.N() < 1 {
			t.Fatalf("decoded table has %d ranks", d.N())
		}
	})
}
