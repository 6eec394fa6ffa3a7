package particle

import (
	"bytes"
	"testing"

	"pscluster/internal/geom"
)

// checkPartitionDropsDead holds a partition that meets the frame's dead
// to the two-pass form it replaces. It builds two identical stores of n
// particles from seed — spread past both edges of [0, 100) and drifted
// so some change bins — with particle i dead when bit i%64 of mask is
// set. The first is partitioned as it is; the second loses its dead to
// RemoveDead first. The leavers' wire bytes, every bin's columns and
// Len must agree, and Live must count what RemoveDead leaves.
func checkPartitionDropsDead(t *testing.T, seed, mask uint64, n int, part func(*ColumnStore) *Batch) {
	t.Helper()
	mk := func() *ColumnStore {
		s := mkStore(8)
		r := geom.NewRNG(seed)
		for i := 0; i < n; i++ {
			s.Add(Particle{
				Pos:  geom.V(r.Range(-20, 120), r.Range(-5, 5), r.Range(-5, 5)),
				Vel:  r.UnitVec(),
				Age:  r.Float64(),
				Rand: r.Uint64(),
				Dead: mask>>(i%64)&1 == 1,
			})
		}
		s.EachBatch(func(b *Batch) {
			for i := range b.Pos {
				b.Pos[i].X += float64(int(b.Rand[i]%31) - 15)
			}
		})
		return s
	}
	got, want := mk(), mk()
	want.RemoveDead()
	if want.Live() != want.Len() {
		t.Fatalf("after RemoveDead: Live %d, Len %d", want.Live(), want.Len())
	}
	if got.Live() != want.Len() {
		t.Fatalf("Live %d before the partition, RemoveDead leaves %d", got.Live(), want.Len())
	}
	outGot, outWant := part(got), part(want)
	if !bytes.Equal(outGot.EncodeWire(), outWant.EncodeWire()) {
		t.Fatalf("leavers differ: %d without RemoveDead, %d with", outGot.Len(), outWant.Len())
	}
	if got.Len() != want.Len() || got.Live() != got.Len() {
		t.Fatalf("kept %d (live %d) without RemoveDead, %d with", got.Len(), got.Live(), want.Len())
	}
	for bi := 0; bi < got.NumBins(); bi++ {
		if !bytes.Equal(got.Bin(bi).EncodeWire(), want.Bin(bi).EncodeWire()) {
			t.Fatalf("bin %d differs: %d particles without RemoveDead, %d with",
				bi, got.Bin(bi).Len(), want.Bin(bi).Len())
		}
	}
}

// partitionPredicates are the two partitions the calculators run: the
// slab interval scan, and an ownership predicate no interval describes.
var partitionPredicates = []struct {
	name string
	part func(*ColumnStore) *Batch
}{
	{"slab", (*ColumnStore).PartitionBatch},
	{"owned", func(s *ColumnStore) *Batch {
		return s.PartitionOwnedBatch(func(p geom.Vec3) bool { return p.X >= 10 && p.X < 90 && p.Y < 3 })
	}},
}

// The calculators no longer compact the dead before the exchange: the
// partition drops them in its own scan. On random stores with random
// dead masks, that must leave exactly what RemoveDead then partition
// left.
func TestPartitionDropsDead(t *testing.T) {
	r := geom.NewRNG(38)
	masks := []uint64{0, ^uint64(0), 1, 1 << 63}
	for i := 0; i < 12; i++ {
		masks = append(masks, r.Uint64(), r.Uint64()&r.Uint64(), r.Uint64()|r.Uint64())
	}
	for _, pp := range partitionPredicates {
		t.Run(pp.name, func(t *testing.T) {
			for i, mask := range masks {
				checkPartitionDropsDead(t, uint64(i+1), mask, 1+int(r.Range(0, 600)), pp.part)
			}
			checkPartitionDropsDead(t, 99, ^uint64(0), 0, pp.part) // empty store
		})
	}
}
