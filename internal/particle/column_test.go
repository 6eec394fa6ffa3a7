package particle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"pscluster/internal/geom"
)

func foldFloats(h hash.Hash, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

func foldInts(h hash.Hash, ns ...int) {
	var b [8]byte
	for _, n := range ns {
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
}

// randomOpsDigest is the SHA-256 of the op sequence below: every
// partition and donation output and, after each of the 400 steps, the
// store's bounds, bin counts and full particle sequence, all fields
// bit-exact. Until binIndex clamped in float it was
// 723f6f9715560188f4b7c79dd77c11b578eb4b02b1779051153c5f8b2c352940, the
// digest the array-of-structs Store produced at commit 31af470 (the
// last that had it) and ColumnStore matched step for step. The sequence
// collapses intervals by donation and then files particles past them,
// which amd64's int conversion of +Inf had put in bin 0 instead of the
// last bin.
const randomOpsDigest = "61e80269c1830b783ab409a87d372daa36077c04ac473dcb194d888e9bd274d0"

// The ordering contract behind the engine's bit-identity, frozen: any
// operation sequence leaves the store in the state — particle order,
// bins, bounds, donation results — the reference layout reached. A
// change that reorders anything the store returns or keeps fails here
// before it moves a frame checksum.
func TestColumnStoreMatchesStoreUnderRandomOps(t *testing.T) {
	r := geom.NewRNG(42)
	s := mkStore(8)
	h := sha256.New()
	randP := func() Particle {
		return Particle{
			Pos:  geom.V(r.Range(-20, 120), r.Range(-5, 5), r.Range(-5, 5)),
			Vel:  r.UnitVec(),
			Age:  r.Float64(),
			Rand: r.Uint64(),
		}
	}
	for step := 0; step < 400; step++ {
		switch r.Intn(8) {
		case 0, 1:
			s.Add(randP())
		case 2:
			ps := make([]Particle, r.Intn(20))
			for i := range ps {
				ps[i] = randP()
			}
			addAll(s, ps)
		case 3:
			drift := r.Range(-3, 3)
			kill := r.Float64() < 0.3
			forEach(s, func(p *Particle) {
				p.Pos.X += drift
				if kill && p.Rand%7 == 0 {
					p.Dead = true
				}
			})
			foldInts(h, s.RemoveDead())
		case 4:
			h.Write(s.PartitionBatch().EncodeWire())
		case 5:
			lo := r.Range(-10, 40)
			hi := lo + r.Range(0, 80)
			s.Resize(lo, hi)
		case 6:
			n := r.Intn(s.Len() + 2)
			side := LowSide
			if r.Intn(2) == 1 {
				side = HighSide
			}
			donated, boundary := s.DonateBatch(n, side)
			h.Write(donated.EncodeWire())
			foldFloats(h, boundary)
		case 7:
			var b Batch
			for i := 0; i < r.Intn(15); i++ {
				b.Append(randP())
			}
			s.AddBatch(&b)
		}
		lo, hi := s.Bounds()
		foldFloats(h, lo, hi)
		foldInts(h, s.BinCounts()...)
		h.Write(EncodeBatch(s.All()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != randomOpsDigest {
		t.Fatalf("store states diverge from the frozen reference:\n got %s\nwant %s", got, randomOpsDigest)
	}
}

// EachBatch visits the particles in store order — bins ascending,
// insertion order within a bin — and mutations through the columns land
// exactly like record-wise At/Set mutations.
func TestEachBatchOrderAndMutation(t *testing.T) {
	s := mkStore(6)
	r := geom.NewRNG(7)
	for i := 0; i < 200; i++ {
		s.Add(Particle{Pos: geom.V(r.Range(0, 100), 0, 0), Rand: uint64(i)})
	}
	want := s.All()
	var order []uint64
	s.EachBatch(func(b *Batch) {
		for i := range b.Rand {
			order = append(order, b.Rand[i])
			b.Age[i] += 1.5
		}
	})
	if len(order) != len(want) {
		t.Fatalf("visited %d particles, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i].Rand {
			t.Fatalf("visit order diverges at %d: %d vs %d", i, order[i], want[i].Rand)
		}
		want[i].Age += 1.5
	}
	for i, p := range s.All() {
		if p != want[i] {
			t.Fatalf("particle %d after column mutation:\n got %+v\nwant %+v", i, p, want[i])
		}
	}
}

// ---------------------------------------------------------------------
// Resize against its oracle
// ---------------------------------------------------------------------

// gatherResize is the historical Resize, kept as the oracle: gather
// every particle in store order, install the interval, clear, re-add.
func gatherResize(s *ColumnStore, lo, hi float64) *ColumnStore {
	ref := NewColumnStore(s.Axis(), lo, hi, s.NumBins())
	addAll(ref, s.All())
	return ref
}

func requireSameStore(t *testing.T, ctx string, got, want *ColumnStore) {
	t.Helper()
	gl, gh := got.Bounds()
	wl, wh := want.Bounds()
	if gl != wl || gh != wh {
		t.Fatalf("%s: bounds [%v, %v), want [%v, %v)", ctx, gl, gh, wl, wh)
	}
	gc, wc := got.BinCounts(), want.BinCounts()
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("%s: bin counts %v, want %v", ctx, gc, wc)
		}
	}
	ga, wa := got.All(), want.All()
	if len(ga) != len(wa) || got.Len() != want.Len() {
		t.Fatalf("%s: %d particles (Len %d), want %d", ctx, len(ga), got.Len(), len(wa))
	}
	for i := range wa {
		if ga[i] != wa[i] {
			t.Fatalf("%s: particle %d diverges:\n got %+v\nwant %+v", ctx, i, ga[i], wa[i])
		}
	}
}

// Property: whatever sequence of structural operations precedes it, a
// Resize — to the bounds the store already reports, to moved bounds, to
// a collapsed interval — leaves the store exactly where the
// gather-all/clear/re-add oracle leaves it. The sequences include the
// two cases the in-place Resize must not skip or mis-order: a donation
// that moved an edge without re-binning (then a Resize to those very
// bounds), and particles added under the moved edge before the Resize.
func TestResizeMatchesGatherOracleUnderRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := geom.NewRNG(seed)
		s := mkStore(8)
		randP := func() Particle {
			lo, hi := s.Bounds()
			return Particle{
				Pos:  geom.V(r.Range(lo-5, hi+5), r.Range(-5, 5), r.Range(-5, 5)),
				Vel:  r.UnitVec(),
				Age:  r.Float64(),
				Rand: r.Uint64(),
			}
		}
		resizes := [3]int{}
		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); op {
			case 0:
				s.Add(randP())
			case 1, 2:
				var b Batch
				for i, n := 0, r.Intn(30); i < n; i++ {
					b.Append(randP())
				}
				s.AddBatch(&b)
			case 3:
				// Positions only change between binnings inside a frame:
				// the exchange re-bins them before any Resize.
				drift := r.Range(-6, 6)
				forEach(s, func(p *Particle) { p.Pos.X += drift })
				s.PartitionBatch()
			case 4:
				forEach(s, func(p *Particle) { p.Dead = p.Rand%5 == 0 })
				s.RemoveDead()
			case 5:
				// Mostly lands inside a bin: the sorted partial-bin path.
				s.DonateBatch(r.Intn(s.Len()/2+1), Side(r.Intn(2)))
			case 6:
				if r.Intn(4) == 0 {
					s.DonateBatch(s.Len(), Side(r.Intn(2))) // donate everything
				}
			default:
				lo, hi := s.Bounds()
				switch op {
				case 8:
					lo = r.Range(-10, 40)
					hi = lo + r.Range(20, 100)
				case 9:
					if r.Intn(3) > 0 {
						continue
					}
					lo = r.Range(lo, hi)
					hi = lo
				}
				resizes[op-7]++
				want := gatherResize(s, lo, hi)
				s.Resize(lo, hi)
				requireSameStore(t, fmt.Sprintf("seed %d step %d: Resize(%v, %v)", seed, step, lo, hi), s, want)
			}
		}
		if resizes[0] == 0 || resizes[1] == 0 || resizes[2] == 0 {
			t.Fatalf("seed %d: resize kinds exercised %v, want every kind", seed, resizes)
		}
	}
}

// The trap spelled out: DonateBatch moves the store's edge without
// re-binning, so a Resize to the bounds the store now reports is not a
// no-op — the kept particles still sit in the bins of the old interval.
func TestResizeAfterDonationRebinsAtReportedBounds(t *testing.T) {
	for _, side := range []Side{LowSide, HighSide} {
		s := mkStore(8)
		fillUniform(s, 400, 11)
		s.DonateBatch(150, side)
		lo, hi := s.Bounds()
		want := gatherResize(s, lo, hi)
		s.Resize(lo, hi)
		requireSameStore(t, side.String(), s, want)
	}
}

// Steady state allocates nothing: a Resize to the interval the bins
// were built for touches no particle, and a boundary that keeps moving
// re-bins between the two bin sets once both have grown.
func TestResizeSteadyStateZeroAlloc(t *testing.T) {
	s := mkStore(8)
	fillUniform(s, 2000, 13)
	s.Resize(10, 90)
	before := s.All()
	if got := testing.AllocsPerRun(50, func() { s.Resize(10, 90) }); got != 0 {
		t.Errorf("Resize to the unchanged interval: %v allocations, want 0", got)
	}
	for i, p := range s.All() {
		if p != before[i] {
			t.Fatalf("Resize to the unchanged interval moved particle %d", i)
		}
	}
	move := func() {
		s.Resize(0, 100)
		s.Resize(10, 90)
	}
	move() // both bin sets reach their working capacity
	if got := testing.AllocsPerRun(20, move); got != 0 {
		t.Errorf("Resize between two intervals: %v allocations per round trip, want 0", got)
	}
}

// The batches PartitionBatch, PartitionOwnedBatch and DonateBatch
// return are the store's own: once warm, a partition or a whole-bin
// donation allocates nothing, and the next call of the method refills
// the very batch the previous one returned.
func TestStoreBatchOutputsReusedWhenWarm(t *testing.T) {
	s := mkStore(8)
	fillUniform(s, 2000, 21)
	r := geom.NewRNG(22)
	for i := 0; i < 300; i++ { // leavers on both sides, clamped into the edge bins
		x := r.Range(-30, 0)
		if i%2 == 1 {
			x = r.Range(100, 130)
		}
		s.Add(Particle{Pos: geom.V(x, 0, 0)})
	}
	inside := func(p geom.Vec3) bool { return p.X >= 0 && p.X < 100 }
	partitions := []struct {
		name string
		run  func() *Batch
	}{
		{"PartitionBatch", s.PartitionBatch},
		{"PartitionOwnedBatch", func() *Batch { return s.PartitionOwnedBatch(inside) }},
	}
	for _, p := range partitions {
		cycle := func() { s.AddBatch(p.run()) } // the leavers come straight back
		cycle()
		if got := testing.AllocsPerRun(20, cycle); got != 0 {
			t.Errorf("%s: %v allocations per warm call, want 0", p.name, got)
		}
		first := p.run()
		if first.Len() != 300 {
			t.Fatalf("%s: %d leavers, want 300", p.name, first.Len())
		}
		var leavers Batch
		leavers.AppendBatch(first)
		if second := p.run(); second != first || first.Len() != 0 {
			t.Errorf("%s: the second call left the first result with %d particles, want it refilled with none", p.name, first.Len())
		}
		s.AddBatch(&leavers)
	}

	whole := s.BinCounts()[0] // the cut falls on bin 0's high edge
	cycle := func() {
		d, _ := s.DonateBatch(whole, LowSide)
		s.Resize(0, 100)
		s.AddBatch(d)
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Errorf("whole-bin DonateBatch: %v allocations per warm call, want 0", got)
	}
	first, _ := s.DonateBatch(whole, LowSide)
	if first.Len() != whole {
		t.Fatalf("DonateBatch gave %d particles, want %d", first.Len(), whole)
	}
	if second, _ := s.DonateBatch(0, LowSide); second != first || first.Len() != 0 {
		t.Errorf("DonateBatch: the second call left the first result with %d particles, want it refilled with none", first.Len())
	}
}

// ---------------------------------------------------------------------
// Donation edge cases
// ---------------------------------------------------------------------

// Donating the whole domain leaves a degenerate interval: the boundary
// lands on the far edge, the store empties, and a subsequent Resize to
// the resulting zero-width interval widens it to the minimal sliver
// [lo, lo+minWidth).
func TestDonateWholeDomainDegenerateSliver(t *testing.T) {
	for _, side := range []Side{LowSide, HighSide} {
		s := mkStore(4)
		addAll(s, benchParticles(50))
		want := s.All()

		donated, boundary := s.DonateBatch(50, side)
		far := 100.0
		if side == HighSide {
			far = 0.0
		}
		if boundary != far {
			t.Fatalf("%v: whole-domain boundary = %v, want far edge %v", side, boundary, far)
		}
		// Everything goes, unsorted: the donation is the store order.
		if donated.Len() != 50 || s.Len() != 0 {
			t.Fatalf("%v: donated %d, kept %d, want 50 and 0", side, donated.Len(), s.Len())
		}
		for i, p := range donated.All() {
			if p != want[i] {
				t.Fatalf("%v: donation order diverges at %d", side, i)
			}
		}

		// The donor's domain collapses to the boundary — a zero-width
		// interval that Resize must widen to the minimal sliver rather
		// than reject.
		s.Resize(boundary, boundary)
		if lo, hi := s.Bounds(); lo != boundary || hi != boundary+minWidth {
			t.Fatalf("%v: sliver = [%v, %v), want [%v, %v)", side, lo, hi, boundary, boundary+minWidth)
		}
		// The sliver still accepts and clamps particles.
		s.Add(Particle{Pos: geom.V(boundary+10, 0, 0)})
		if c := s.BinCounts(); s.Len() != 1 || c[len(c)-1] != 1 {
			t.Fatalf("%v: sliver bin counts = %v, want the particle clamped into the last bin", side, c)
		}
	}
}

// wantDonation states DonateBatch's order directly for distinct
// coordinates: bins walked from the donating edge, whole bins in
// insertion order, the bin the cut lands in sorted from the edge inward.
func wantDonation(s *ColumnStore, n int, side Side) []Particle {
	all := s.All()
	bins := make([][]Particle, s.NumBins())
	for bi, c := range s.BinCounts() {
		bins[bi], all = all[:c], all[c:]
	}
	var out []Particle
	for k := range bins {
		b := bins[k]
		if side == HighSide {
			b = bins[len(bins)-1-k]
		}
		if len(out)+len(b) > n {
			sort.Slice(b, func(i, j int) bool {
				if side == LowSide {
					return b[i].Pos.X < b[j].Pos.X
				}
				return b[i].Pos.X > b[j].Pos.X
			})
			b = b[:n-len(out)]
		}
		out = append(out, b...)
	}
	return out
}

// A donation larger than any edge bin straddles several bins: whole
// bins are consumed unsorted and only the cut bin is sorted.
func TestDonateStraddlesMultipleEdgeBins(t *testing.T) {
	for _, side := range []Side{LowSide, HighSide} {
		s := mkStore(10) // bins of width 10
		r := geom.NewRNG(3)
		for i := 0; i < 300; i++ {
			s.Add(Particle{Pos: geom.V(r.Range(0, 100), 0, 0), Rand: uint64(i)})
		}

		// ~30 particles per bin; donate 100 → consumes 3+ whole edge
		// bins and cuts inside the next.
		want := wantDonation(s, 100, side)
		donated, boundary := s.DonateBatch(100, side)
		if donated.Len() != 100 || s.Len() != 200 {
			t.Fatalf("%v: donated %d, kept %d, want 100 and 200", side, donated.Len(), s.Len())
		}
		for i, p := range donated.All() {
			if p != want[i] {
				t.Fatalf("%v: donation order diverges at %d:\n got %+v\nwant %+v", side, i, p, want[i])
			}
		}
		// The cut bin's kept remainder stays sorted, so its first
		// particle is the nearest kept one.
		last := want[len(want)-1].Pos.X
		for _, p := range s.All() {
			if (side == LowSide && p.Pos.X < last) || (side == HighSide && p.Pos.X > last) {
				t.Fatalf("%v: kept particle at %v inside the donated span (cut at %v)", side, p.Pos.X, last)
			}
		}
		if lo, hi := s.Bounds(); (side == LowSide && lo != boundary) || (side == HighSide && hi != boundary) {
			t.Fatalf("%v: bounds [%v, %v) do not end at the boundary %v", side, lo, hi, boundary)
		}
	}
}

// Duplicate coordinates around empty edge bins: the walk skips the
// empty bins, consumes the nearer pile whole and in insertion order,
// and cuts the farther pile of tied sort keys without losing or
// duplicating a record.
func TestDonateEmptyBinsAndTiedSortKeys(t *testing.T) {
	for _, side := range []Side{LowSide, HighSide} {
		s := mkStore(10)
		// Leave the edge bins empty and pile tied coordinates into two
		// middle bins; Rand distinguishes the records.
		for i := 0; i < 40; i++ {
			s.Add(Particle{Pos: geom.V(45, 0, 0), Rand: uint64(i)})
			s.Add(Particle{Pos: geom.V(55, 0, 0), Rand: uint64(1000 + i)})
		}
		near, far, nearRand := 45.0, 55.0, uint64(0)
		if side == HighSide {
			near, far, nearRand = 55.0, 45.0, 1000
		}

		donated, boundary := s.DonateBatch(60, side)
		if donated.Len() != 60 || s.Len() != 20 {
			t.Fatalf("%v: donated %d, kept %d, want 60 and 20", side, donated.Len(), s.Len())
		}
		if boundary != far {
			t.Fatalf("%v: boundary = %v, want the tied coordinate %v", side, boundary, far)
		}
		seen := map[uint64]bool{}
		for i, p := range donated.All() {
			switch {
			case i < 40 && (p.Pos.X != near || p.Rand != nearRand+uint64(i)):
				t.Fatalf("%v: donated[%d] = x %v Rand %d, want the near pile in insertion order", side, i, p.Pos.X, p.Rand)
			case i >= 40 && p.Pos.X != far:
				t.Fatalf("%v: donated[%d] at x %v, want the far pile", side, i, p.Pos.X)
			}
			seen[p.Rand] = true
		}
		for _, p := range s.All() {
			if p.Pos.X != far {
				t.Fatalf("%v: kept particle at x %v, want only the far pile's remainder", side, p.Pos.X)
			}
			seen[p.Rand] = true
		}
		if len(seen) != 80 {
			t.Fatalf("%v: %d distinct records after the cut, want 80", side, len(seen))
		}
	}
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

// The columnar encoder emits bit-identical bytes to the record encoder,
// and both decoders agree on the result.
func TestEncodeWireMatchesEncodeBatch(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		ps := benchParticles(n)
		for i := range ps {
			ps[i].Dead = i%5 == 0
			ps[i].Rand = uint64(i) * 0x9e3779b97f4a7c15
		}
		want := EncodeBatch(ps)
		var cols Batch
		cols.AppendSlice(ps)
		got := cols.EncodeWire()
		if !bytes.Equal(want, got) {
			t.Fatalf("n=%d: EncodeWire bytes differ from EncodeBatch", n)
		}
		back, err := DecodeWire(got)
		if err != nil {
			t.Fatalf("n=%d: DecodeWire: %v", n, err)
		}
		all := back.All()
		for i := range ps {
			if all[i] != ps[i] {
				t.Fatalf("n=%d: round-trip particle %d differs", n, i)
			}
		}
	}
}

// DecodeWireInto reuses column capacity across calls without leaking
// stale records from a previous, larger decode.
func TestDecodeWireIntoReuse(t *testing.T) {
	big := EncodeBatch(benchParticles(500))
	small := EncodeBatch(benchParticles(3))
	var b Batch
	if err := b.DecodeWireInto(big); err != nil {
		t.Fatal(err)
	}
	if err := b.DecodeWireInto(small); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("reused batch has %d particles, want 3", b.Len())
	}
	want := benchParticles(3)
	for i, p := range b.All() {
		if p != want[i] {
			t.Fatalf("reused decode particle %d differs", i)
		}
	}
}

// corruptPayloads is the table of hostile wire inputs. Both decoders
// must reject every one of them, with matching accept/reject behavior.
func corruptPayloads() map[string][]byte {
	valid := EncodeBatch(benchParticles(4))
	mk := func(mut func(b []byte) []byte) []byte {
		c := append([]byte(nil), valid...)
		return mut(c)
	}
	return map[string][]byte{
		"empty":            {},
		"short-header":     {1, 2, 3},
		"truncated-column": mk(func(b []byte) []byte { return b[:4+2*WireSize+100] }),
		"trailing-bytes":   mk(func(b []byte) []byte { return append(b, 0xAB, 0xCD) }),
		"hostile-count": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 1<<30) // claims ~150 GB of records
			return b
		}),
		"count-over-payload": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 5)
			return b
		}),
		"count-under-payload": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 3)
			return b
		}),
		"unknown-flag-bits": mk(func(b []byte) []byte {
			b[4+2*WireSize+120] |= 0x02
			return b
		}),
		"nonzero-padding": mk(func(b []byte) []byte {
			b[4+1*WireSize+135] = 0xFF
			return b
		}),
	}
}

func TestDecodeWireRejectsCorruptPayloads(t *testing.T) {
	for name, payload := range corruptPayloads() {
		t.Run(name, func(t *testing.T) {
			_, errRec := DecodeBatch(payload)
			_, errCol := DecodeWire(payload)
			if errRec == nil {
				t.Fatalf("record decoder accepted corrupt payload")
			}
			if errCol == nil {
				t.Fatalf("columnar decoder accepted corrupt payload")
			}
			// A failed decode must not disturb a reusable batch.
			var b Batch
			if err := b.DecodeWireInto(EncodeBatch(benchParticles(2))); err != nil {
				t.Fatal(err)
			}
			before := b.All()
			if err := b.DecodeWireInto(payload); err == nil {
				t.Fatal("reused decode accepted corrupt payload")
			}
			for i, p := range b.All() {
				if p != before[i] {
					t.Fatalf("failed decode mutated the batch at %d", i)
				}
			}
		})
	}
}
