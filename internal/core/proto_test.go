package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pscluster/internal/domain"
	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
	"pscluster/internal/particle"
)

// Single-record and whole-message oracles. The engine only ever writes
// orders and edge tables as per-group sequences and frames particle
// payloads through sysGroup.pack; these are the one-record forms those
// sequences must degenerate to, and the record-level round trip of a
// framed particle message the fuzzer and the corrupt-payload table use.

func encodeOrder(o *loadbalance.Order) []byte {
	b := make([]byte, orderSize)
	putOrder(b, o)
	return b
}

// encodeRenderBatch is the record-slice form of encodeRenderSet.
func encodeRenderBatch(ps []particle.Particle) []byte {
	b := make([]byte, 4+len(ps)*renderRecordSize)
	binary.LittleEndian.PutUint32(b, uint32(len(ps)))
	for i := range ps {
		putRenderRecord(b, 4+i*renderRecordSize, ps[i].Pos, ps[i].Color, ps[i].Alpha, ps[i].Size)
	}
	return b
}

func encodeEdges(edges []float64) []byte {
	b := make([]byte, 8*len(edges))
	putEdges(b, edges)
	return b
}

func decodeEdgesN1(b []byte, edgeLen int) ([]float64, error) {
	tables, err := decodeMultiEdges(nil, b, 1, edgeLen)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// framedGroup is a framed group of n systems.
func framedGroup(n int) sysGroup { return sysGroup{hi: n, framed: true} }

// encodeParticles encodes records on the wire through a batch.
func encodeParticles(ps []particle.Particle) []byte {
	var b particle.Batch
	b.AppendSlice(ps)
	return b.EncodeWire()
}

func encodeMultiBatch(batches [][]particle.Particle) []byte {
	slots := make([][]byte, len(batches))
	for i, ps := range batches {
		slots[i] = encodeParticles(ps)
	}
	return framedGroup(len(batches)).pack(slots)
}

func decodeMultiBatch(b []byte) ([][]particle.Particle, error) {
	slots, err := decodeCountedSeq(nil, b, "multi-batch", batchSlotSize)
	if err != nil {
		return nil, err
	}
	out := make([][]particle.Particle, len(slots))
	for i, s := range slots {
		b, err := particle.DecodeWire(s)
		if err != nil {
			return nil, err
		}
		out[i] = b.All()
	}
	return out, nil
}

func mkParticle(seed float64) particle.Particle {
	var p particle.Particle
	p.Pos = geom.V(seed, seed+1, seed+2)
	p.Vel = geom.V(-seed, 0.5, 2*seed)
	p.Color = geom.V(0.25, 0.5, 0.75)
	p.Alpha = 0.8
	p.Size = 0.4
	p.Age = seed / 10
	return p
}

// Round-trips for every single-system codec.
func TestCodecRoundTrips(t *testing.T) {
	t.Run("load-report", func(t *testing.T) {
		want := loadbalance.Report{Load: 12345, Time: 6.75}
		got, err := decodeLoadReport(encodeLoadReport(want))
		if err != nil || got != want {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("order", func(t *testing.T) {
		for _, want := range []*loadbalance.Order{
			nil,
			{Op: loadbalance.Send, Peer: 3, Count: 250},
			{Op: loadbalance.Receive, Peer: 0, Count: 1},
		} {
			got, err := decodeOrder(encodeOrder(want))
			if err != nil {
				t.Fatal(err)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("nil-ness differs: got %+v want %+v", got, want)
			}
			if got != nil && *got != *want {
				t.Fatalf("got %+v want %+v", got, want)
			}
		}
	})
	t.Run("boundary", func(t *testing.T) {
		edge, val, err := decodeBoundary(encodeBoundary(2, -7.25))
		if err != nil || edge != 2 || val != -7.25 {
			t.Fatalf("got %d %v %v", edge, val, err)
		}
	})
	t.Run("boundary-sys", func(t *testing.T) {
		sys, edge, val, err := decodeBoundarySys(encodeBoundarySys(1, 3, 0.5))
		if err != nil || sys != 1 || edge != 3 || val != 0.5 {
			t.Fatalf("got %d %d %v %v", sys, edge, val, err)
		}
	})
	t.Run("edges", func(t *testing.T) {
		want := []float64{-60, -20, 20, 60}
		got, err := decodeEdgesN1(encodeEdges(want), len(want))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("edge %d: got %v want %v", i, got[i], want[i])
			}
		}
	})
	t.Run("render-batch", func(t *testing.T) {
		ps := []particle.Particle{mkParticle(1), mkParticle(2)}
		var got particle.Batch
		if err := decodeRenderColumnsInto(&got, encodeRenderBatch(ps)); err != nil || got.Len() != 2 {
			t.Fatalf("got %d records, %v", got.Len(), err)
		}
		// Render records quantize to f32; compare through the same path.
		if float64(float32(ps[1].Pos.X)) != got.Pos[1].X {
			t.Fatalf("position mangled: %v vs %v", ps[1].Pos.X, got.Pos[1].X)
		}
	})
}

// Round-trips for every multi-system codec.
func TestMultiCodecRoundTrips(t *testing.T) {
	t.Run("multi-batch", func(t *testing.T) {
		want := [][]particle.Particle{
			{mkParticle(1), mkParticle(2)},
			nil,
			{mkParticle(3)},
		}
		got, err := decodeMultiBatch(encodeMultiBatch(want))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d slots, want %d", len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("slot %d: %d particles, want %d", i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("slot %d particle %d differs", i, j)
				}
			}
		}
	})
	t.Run("multi-reports", func(t *testing.T) {
		want := []loadbalance.Report{{Load: 1, Time: 2}, {Load: 3, Time: 4}}
		got, err := decodeMultiReports(nil, encodeMultiReports(want), 2)
		if err != nil || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("multi-orders", func(t *testing.T) {
		want := []*loadbalance.Order{nil, {Op: loadbalance.Send, Peer: 1, Count: 7}}
		got, err := decodeMultiOrders(nil, encodeMultiOrders(want), 2)
		if err != nil || got[0] != nil || *got[1] != *want[1] {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("multi-edges", func(t *testing.T) {
		want := [][]float64{{0, 1, 2}, {3, 4, 5}}
		got, err := decodeMultiEdges(nil, encodeMultiEdges(want), 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for si := range want {
			for i := range want[si] {
				if got[si][i] != want[si][i] {
					t.Fatalf("table %d edge %d differs", si, i)
				}
			}
		}
	})
	t.Run("multi-render", func(t *testing.T) {
		blobs := [][]byte{
			encodeRenderBatch([]particle.Particle{mkParticle(1)}),
			encodeRenderBatch(nil),
		}
		want := [][]byte{append([]byte(nil), blobs[0]...), append([]byte(nil), blobs[1]...)}
		g := framedGroup(2)
		got, err := g.unpack(nil, g.pack(blobs), 2, "render batch", renderSlotSize)
		if err != nil || len(got) != 2 {
			t.Fatalf("got %d blobs, %v", len(got), err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("blob %d differs", i)
			}
		}
	})
}

// A sequence of one record is the single record, byte for byte: this is
// what lets a single-system group speak the multi-system codecs without
// a branch — and what keeps its traffic identical to the historical
// per-system messages.
func TestMultiCodecsDegenerateAtOne(t *testing.T) {
	r := loadbalance.Report{Load: 77, Time: 1.5}
	if !bytes.Equal(encodeMultiReports([]loadbalance.Report{r}), encodeLoadReport(r)) {
		t.Error("one-report sequence differs from the single report")
	}
	for _, o := range []*loadbalance.Order{nil, {Op: loadbalance.Send, Peer: 2, Count: 9}, {Op: loadbalance.Receive, Peer: 1, Count: 4}} {
		if !bytes.Equal(encodeMultiOrders([]*loadbalance.Order{o}), encodeOrder(o)) {
			t.Errorf("one-order sequence differs from the single order %+v", o)
		}
	}
	e := []float64{-60, -20, 20, 60}
	if !bytes.Equal(encodeMultiEdges([][]float64{e}), encodeEdges(e)) {
		t.Error("one-table sequence differs from the single edge table")
	}
}

// The group is the only place that knows whether a count is on the
// wire: unframed, the single slot is the message (same backing array
// both ways, so pooled-buffer ownership passes through); framed, a
// message carrying any other number of slots than the receiver expects
// is rejected, whatever the slots hold.
func TestGroupPackUnpack(t *testing.T) {
	one := sysGroup{lo: 2, hi: 3}
	slot := encodeParticles([]particle.Particle{mkParticle(1)})
	msg := one.pack([][]byte{slot})
	if &msg[0] != &slot[0] || len(msg) != len(slot) {
		t.Error("unframed pack copied or re-framed its slot")
	}
	back, err := one.unpack(nil, msg, 1, "exchange", batchSlotSize)
	if err != nil || len(back) != 1 || &back[0][0] != &msg[0] {
		t.Errorf("unframed unpack: %d slots, %v", len(back), err)
	}

	table, err := domain.NewEqual(geom.AxisX, -60, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		what string
		size func([]byte) int
		slot func() []byte
	}{
		{"particle exchange", batchSlotSize, func() []byte { return encodeParticles([]particle.Particle{mkParticle(1)}) }},
		{"decomposition broadcast", domain.WireSize, func() []byte { return domain.Encode(table) }},
		{"render batch", renderSlotSize, func() []byte { return encodeRenderBatch([]particle.Particle{mkParticle(1)}) }},
	}
	for _, k := range kinds {
		for _, sent := range []int{0, 2, 3, 4} {
			slots := make([][]byte, sent)
			for i := range slots {
				slots[i] = k.slot()
			}
			got, err := framedGroup(3).unpack(nil, framedGroup(sent).pack(slots), 3, k.what, k.size)
			if sent == 3 {
				if err != nil || len(got) != 3 {
					t.Errorf("%s: 3 slots unpacked as %d, %v", k.what, len(got), err)
				}
			} else if err == nil {
				t.Errorf("%s: %d slots accepted by a group of 3", k.what, sent)
			}
		}
	}
}

// Every decode path must return an error — never panic or fabricate
// records — on truncated or corrupt payloads.
func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	okBatch := encodeMultiBatch([][]particle.Particle{{mkParticle(1)}, {mkParticle(2)}})
	okRender := framedGroup(1).pack([][]byte{encodeRenderBatch([]particle.Particle{mkParticle(1)})})
	overcount := append([]byte(nil), okBatch...)
	binary.LittleEndian.PutUint32(overcount, math.MaxUint32) // count says 4G slots

	cases := []struct {
		name   string
		decode func([]byte) error
		bad    [][]byte
	}{
		{"load-report", func(b []byte) error { _, err := decodeLoadReport(b); return err },
			[][]byte{nil, make([]byte, 15), make([]byte, 17),
				{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}}},
		{"order", func(b []byte) error { _, err := decodeOrder(b); return err },
			[][]byte{nil, make([]byte, 8), make([]byte, 10),
				{3, 0, 0, 0, 0, 0, 0, 0, 0},      // unknown opcode
				{0xff, 0, 0, 0, 0, 0, 0, 0, 0}}}, // unknown opcode
		{"boundary", func(b []byte) error { _, _, err := decodeBoundary(b); return err },
			[][]byte{nil, make([]byte, 11), make([]byte, 13)}},
		{"boundary-sys", func(b []byte) error { _, _, _, err := decodeBoundarySys(b); return err },
			[][]byte{nil, make([]byte, 15), make([]byte, 17)}},
		{"edges", func(b []byte) error { _, err := decodeEdges(b); return err },
			[][]byte{make([]byte, 7), make([]byte, 9)}},
		// One system's table for 3 calculators is exactly 4 edges: a
		// well-formed table that is short (2 edges) or long must not get
		// as far as Bounds(idx).
		{"edges-n1", func(b []byte) error { _, err := decodeEdgesN1(b, 4); return err },
			[][]byte{nil, encodeEdges([]float64{-60, 60}), encodeEdges([]float64{-60, 0, 60}),
				encodeEdges([]float64{-60, -30, 0, 30, 60}), make([]byte, 31), make([]byte, 33)}},
		{"multi-reports", func(b []byte) error { _, err := decodeMultiReports(nil, b, 2); return err },
			[][]byte{nil, make([]byte, 31), make([]byte, 33)}},
		{"multi-orders", func(b []byte) error { _, err := decodeMultiOrders(nil, b, 2); return err },
			[][]byte{nil, make([]byte, 17), make([]byte, 19), bytes.Repeat([]byte{9}, 18)}},
		{"multi-edges", func(b []byte) error { _, err := decodeMultiEdges(nil, b, 2, 3); return err },
			[][]byte{nil, make([]byte, 47), make([]byte, 49)}},
		{"render-batch", func(b []byte) error { return decodeRenderColumnsInto(new(particle.Batch), b) },
			[][]byte{nil, {1}, {1, 0, 0, 0}, append([]byte{1, 0, 0, 0}, make([]byte, 31)...)}},
		{"multi-batch", func(b []byte) error { _, err := decodeMultiBatch(b); return err },
			[][]byte{nil, {2}, {2, 0, 0, 0}, okBatch[:len(okBatch)-1],
				append(okBatch, 0), overcount}},
		{"multi-render", func(b []byte) error {
			_, err := framedGroup(1).unpack(nil, b, 1, "render batch", renderSlotSize)
			return err
		},
			[][]byte{nil, {1}, {1, 0, 0, 0}, okRender[:len(okRender)-1],
				append(append([]byte(nil), okRender...), 0)}},
		// The image generator without a framebuffer: an unframed group
		// passes the payload through whole, and the blob is only checked,
		// never decoded — yet it is the one chargeBlob bills and hashes.
		{"render-ingest-unrasterized", func(b []byte) error {
			blobs, err := (sysGroup{hi: 1}).unpack(nil, b, 1, "render batch", renderSlotSize)
			if err != nil {
				return err
			}
			return new(imageGenProc).splatBlob(blobs[0])
		},
			[][]byte{{1, 0, 0},
				append([]byte{2, 0, 0, 0}, make([]byte, renderRecordSize)...),     // count says 2, 1 record
				append([]byte{1, 0, 0, 0}, make([]byte, renderRecordSize+5)...)}}, // trailing partial record
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, b := range tc.bad {
				if err := tc.decode(b); err == nil {
					t.Errorf("corrupt payload %d (%d bytes) decoded without error", i, len(b))
				}
			}
		})
	}
}

// FuzzDecodeMultiBatch drives the counted-sequence decoder (and the
// nested particle batch decoder) with arbitrary bytes: it must never
// panic, and on valid-looking input must re-encode to the same bytes.
func FuzzDecodeMultiBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeMultiBatch(nil))
	f.Add(encodeMultiBatch([][]particle.Particle{nil}))
	f.Add(encodeMultiBatch([][]particle.Particle{{mkParticle(1)}, {mkParticle(2), mkParticle(3)}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		batches, err := decodeMultiBatch(b)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeMultiBatch(batches), b) {
			t.Fatalf("re-encode mismatch for %x", b)
		}
	})
}

// FuzzDecodeOrder checks the order codec never panics and only ever
// yields the two real opcodes.
func FuzzDecodeOrder(f *testing.F) {
	f.Add(encodeOrder(nil))
	f.Add(encodeOrder(&loadbalance.Order{Op: loadbalance.Send, Peer: 1, Count: 2}))
	f.Add(encodeOrder(&loadbalance.Order{Op: loadbalance.Receive, Peer: 2, Count: 9}))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := decodeOrder(b)
		if err != nil || o == nil {
			return
		}
		if o.Op != loadbalance.Send && o.Op != loadbalance.Receive {
			t.Fatalf("decoded impossible op %v from %x", o.Op, b)
		}
		if !bytes.Equal(encodeOrder(o), b) {
			t.Fatalf("re-encode mismatch for %x", b)
		}
	})
}

// fnvRenderRecords is hashRenderRecords' oracle: one hash/fnv FNV-1a
// hasher per whole record, the modular sum of their digests.
func fnvRenderRecords(b []byte) uint64 {
	if len(b) < 4 {
		return 0
	}
	b = b[4:]
	var sum uint64
	for off := 0; off+renderRecordSize <= len(b); off += renderRecordSize {
		h := fnv.New64a()
		h.Write(b[off : off+renderRecordSize])
		sum += h.Sum64()
	}
	return sum
}

// randomRenderBlob is a render batch of n records of random bytes, its
// header saying n, followed by extra bytes of a partial record.
func randomRenderBlob(r *geom.RNG, n, extra int) []byte {
	b := make([]byte, 4+n*renderRecordSize+extra)
	binary.LittleEndian.PutUint32(b, uint32(n))
	for i := 4; i < len(b); i++ {
		b[i] = byte(r.Uint64())
	}
	return b
}

// The four-lane checksum is the per-record hash/fnv sum on every
// length: each remainder of the lane loop, a frame-sized batch, and
// blobs too short to hold a record or ending in a partial one.
func TestHashRenderRecordsMatchesFNV(t *testing.T) {
	r := geom.NewRNG(38)
	blobs := map[string][]byte{"nil": nil, "3 bytes": {1, 2, 3}, "8003 records": randomRenderBlob(r, 8003, 0)}
	for n := 0; n <= 9; n++ {
		blobs[fmt.Sprintf("%d records", n)] = randomRenderBlob(r, n, 0)
	}
	for _, extra := range []int{1, 17, renderRecordSize - 1} {
		blobs[fmt.Sprintf("5 records + %d bytes", extra)] = randomRenderBlob(r, 5, extra)
		blobs[fmt.Sprintf("8 records + %d bytes", extra)] = randomRenderBlob(r, 8, extra)
	}
	for name, b := range blobs {
		if got, want := hashRenderRecords(b), fnvRenderRecords(b); got != want {
			t.Errorf("%s: hashRenderRecords %x, hash/fnv %x", name, got, want)
		}
	}
}

// putRenderRecordPerField is putRenderRecord as it was spelled, each of
// the eight stores re-slicing b at its own offset: the oracle for the
// once-sliced record.
func putRenderRecordPerField(b []byte, off int, pos, color geom.Vec3, alpha, size float64) {
	le := binary.LittleEndian
	le.PutUint32(b[off:], math.Float32bits(float32(pos.X)))
	le.PutUint32(b[off+4:], math.Float32bits(float32(pos.Y)))
	le.PutUint32(b[off+8:], math.Float32bits(float32(pos.Z)))
	le.PutUint32(b[off+12:], math.Float32bits(float32(color.X)))
	le.PutUint32(b[off+16:], math.Float32bits(float32(color.Y)))
	le.PutUint32(b[off+20:], math.Float32bits(float32(color.Z)))
	le.PutUint32(b[off+24:], math.Float32bits(float32(alpha)))
	le.PutUint32(b[off+28:], math.Float32bits(float32(size)))
}

// The render encode writes the oracle's bytes for every value the
// float32 narrowing treats specially: NaN, ±Inf, −0, float64 and
// float32 subnormals, and values past float32's range.
func TestEncodeRenderRecordsMatchesPerFieldOracle(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, 1e-310, 1e-40, -1e-45, 1e40, -1e40, math.MaxFloat64}
	r := geom.NewRNG(41)
	val := func() float64 {
		if r.Intn(3) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.Range(-100, 100)
	}
	for _, n := range []int{0, 1, 7, 1000} {
		var batch particle.Batch
		for i := 0; i < n; i++ {
			batch.Append(particle.Particle{
				Pos:   geom.V(val(), val(), val()),
				Color: geom.V(val(), val(), val()),
				Alpha: val(), Size: val(),
			})
		}
		got := make([]byte, 4+n*renderRecordSize)
		want := make([]byte, len(got))
		if end := encodeRenderRecords(got, 4, &batch); end != len(got) {
			t.Fatalf("%d records: encodeRenderRecords ended at %d, want %d", n, end, len(got))
		}
		for i := 0; i < n; i++ {
			putRenderRecordPerField(want, 4+i*renderRecordSize, batch.Pos[i], batch.Color[i], batch.Alpha[i], batch.Size[i])
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d records: encodeRenderRecords differs from the per-field oracle", n)
		}
	}
}
