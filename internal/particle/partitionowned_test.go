package particle

import (
	"sort"
	"testing"

	"pscluster/internal/geom"
)

// byPos orders particles canonically for multiset comparison.
func byPos(ps []Particle) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Pos.X != b.Pos.X {
			return a.Pos.X < b.Pos.X
		}
		if a.Pos.Y != b.Pos.Y {
			return a.Pos.Y < b.Pos.Y
		}
		return a.Rand < b.Rand
	})
}

// With the predicate "inside the store interval", PartitionOwnedBatch
// must extract exactly what PartitionBatch extracts — the interval test
// is the slab special case of ownership.
func TestPartitionOwnedMatchesIntervalPartition(t *testing.T) {
	mk := func(seed uint64) *ColumnStore {
		s := mkStore(6)
		fillUniform(s, 300, seed)
		i := 0
		forEach(s, func(p *Particle) {
			switch i % 7 {
			case 0:
				p.Pos.X = -4
			case 1:
				p.Pos.X = 123
			}
			i++
		})
		return s
	}
	a, b := mk(42), mk(42)
	outA := partition(a)
	lo, hi := b.Bounds()
	outB := b.PartitionOwnedBatch(func(p geom.Vec3) bool { return p.X >= lo && p.X < hi }).All()

	if len(outA) != len(outB) {
		t.Fatalf("extracted %d vs %d", len(outA), len(outB))
	}
	byPos(outA)
	byPos(outB)
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("moved particle %d differs: %+v vs %+v", i, outA[i], outB[i])
		}
	}
	remA, remB := a.All(), b.All()
	byPos(remA)
	byPos(remB)
	if len(remA) != len(remB) {
		t.Fatalf("kept %d vs %d", len(remA), len(remB))
	}
	for i := range remA {
		if remA[i] != remB[i] {
			t.Fatalf("kept particle %d differs", i)
		}
	}
}

// An arbitrary (non-interval) predicate: conservation, correctness of
// both sides, and valid re-binning of the survivors.
func TestPartitionOwnedArbitraryPredicate(t *testing.T) {
	s := mkStore(8)
	fillUniform(s, 400, 9)
	keep := func(p geom.Vec3) bool { return p.Y >= 0 } // cross-axis test
	out := s.PartitionOwnedBatch(keep).All()
	if len(out)+s.Len() != 400 {
		t.Fatalf("conservation broken: %d out + %d kept", len(out), s.Len())
	}
	if len(out) == 0 || s.Len() == 0 {
		t.Fatal("predicate should split the population")
	}
	for _, p := range out {
		if keep(p.Pos) {
			t.Fatal("owned particle extracted")
		}
	}
	for _, p := range s.All() {
		if !keep(p.Pos) {
			t.Fatal("disowned particle kept")
		}
	}
	// Survivor binning must match a fresh store.
	fresh := mkStore(8)
	addAll(fresh, s.All())
	got, want := s.BinCounts(), fresh.BinCounts()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bin %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestPartitionOwnedKeepAllKeepNone(t *testing.T) {
	s := mkStore(4)
	fillUniform(s, 50, 13)
	all := s.PartitionOwnedBatch(func(geom.Vec3) bool { return true })
	if all.Len() != 0 || s.Len() != 50 {
		t.Errorf("keep-all moved %d, kept %d", all.Len(), s.Len())
	}
	none := s.PartitionOwnedBatch(func(geom.Vec3) bool { return false })
	if none.Len() != 50 || s.Len() != 0 {
		t.Errorf("keep-none moved %d, kept %d", none.Len(), s.Len())
	}
}
