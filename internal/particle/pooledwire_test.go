package particle

import (
	"bytes"
	"testing"

	"pscluster/internal/bufpool"
	"pscluster/internal/geom"
)

// poolBatch builds a deterministic batch for the pooled-codec tests.
func poolBatch(n int) *Batch {
	r := geom.NewRNG(42)
	b := &Batch{}
	for i := 0; i < n; i++ {
		b.Append(Particle{
			Pos:   geom.V(r.Range(-10, 10), r.Range(-10, 10), r.Range(-10, 10)),
			Vel:   r.UnitVec(),
			Color: geom.V(r.Float64(), r.Float64(), r.Float64()),
			Age:   r.Float64(),
			Alpha: r.Float64(),
			Size:  r.Float64(),
			Rand:  r.Uint64(),
			Dead:  i%7 == 0,
		})
	}
	return b
}

// A dirty recycled buffer must encode to exactly the bytes of a fresh
// one — EncodeWire writes every byte, including the reserved padding
// the decoder validates.
func TestPooledEncodeWireMatchesFresh(t *testing.T) {
	b := poolBatch(300)
	fresh := append([]byte(nil), b.EncodeWire()...)

	// Poison a pooled buffer of the same class, then re-encode into it.
	dirty := bufpool.Get(BatchBytes(300))
	for i := range dirty {
		dirty[i] = 0xFF
	}
	bufpool.Put(dirty)

	again := b.EncodeWire()
	if !bytes.Equal(fresh, again) {
		t.Fatal("pooled re-encode differs from fresh encode")
	}
	var dec Batch
	if err := dec.DecodeWireInto(again); err != nil {
		t.Fatalf("pooled encode does not decode: %v", err)
	}
	for i := 0; i < b.Len(); i++ {
		if b.At(i) != dec.At(i) {
			t.Fatalf("particle %d diverges after pooled round-trip", i)
		}
	}
}

// Encoded into a dirty pooled buffer, a batch still holds exactly the
// bytes of the record codec's fresh one.
func TestPooledEncodeBatchMatchesWire(t *testing.T) {
	b := poolBatch(128)
	dirty := bufpool.Get(BatchBytes(128))
	for i := range dirty {
		dirty[i] = 0xFF
	}
	bufpool.Put(dirty)
	w := b.EncodeWire()
	if !bytes.Equal(w, EncodeBatch(b.All())) {
		t.Fatal("EncodeBatch and EncodeWire diverge")
	}
	bufpool.Put(w)
}

// The send path's acceptance bar: once the pool is warm, encoding a
// batch for the wire allocates nothing, and neither does decoding it
// into a warm scratch batch on the receive side.
func TestEncodeSendPathZeroAlloc(t *testing.T) {
	b := poolBatch(256)
	// Warm the size class (and the header pool) once.
	bufpool.Put(b.EncodeWire())

	allocs := testing.AllocsPerRun(200, func() {
		buf := b.EncodeWire()
		bufpool.Put(buf)
	})
	if allocs != 0 {
		t.Errorf("EncodeWire send path: %v allocs/op, want 0", allocs)
	}

	wire := b.EncodeWire()
	var dec Batch
	decode := func() {
		if err := dec.DecodeWireInto(wire); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
		t.Errorf("DecodeWireInto receive path: %v allocs/op, want 0", allocs)
	}
	bufpool.Put(wire)
}

// BenchmarkPooledEncode is the allocation half of the hostparallel
// bench artifact: encode-release cycles on a warm pool (report should
// show 0 B/op, 0 allocs/op).
func BenchmarkPooledEncode(b *testing.B) {
	batch := poolBatch(1000)
	bufpool.Put(batch.EncodeWire())
	b.SetBytes(int64(BatchBytes(batch.Len())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := batch.EncodeWire()
		bufpool.Put(buf)
	}
}
