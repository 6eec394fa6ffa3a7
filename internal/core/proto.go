package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"pscluster/internal/bufpool"
	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
	"pscluster/internal/particle"
)

// Wire encodings for the model's control messages (Figure 2 arrows) and
// the compact render record. All little-endian.

// encodeLoadReport packs a calculator's end-of-frame report.
func encodeLoadReport(r loadbalance.Report) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(r.Load))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Time))
	return b
}

func decodeLoadReport(b []byte) (loadbalance.Report, error) {
	if len(b) != 16 {
		return loadbalance.Report{}, fmt.Errorf("core: load report is %d bytes, want 16", len(b))
	}
	load := binary.LittleEndian.Uint64(b)
	if load > math.MaxInt64 {
		return loadbalance.Report{}, fmt.Errorf("core: load report carries negative load")
	}
	return loadbalance.Report{
		Load: int(load),
		Time: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}, nil
}

// Order opcodes on the wire.
const (
	opNone    = 0
	opSend    = 1
	opReceive = 2
)

// encodeOrder packs a load-balancing order for one calculator; a nil
// order encodes as a no-op (the manager always sends one message per
// calculator so the receive pattern stays deterministic).
func encodeOrder(o *loadbalance.Order) []byte {
	b := make([]byte, 9)
	if o == nil {
		b[0] = opNone
		return b
	}
	if o.Op == loadbalance.Send {
		b[0] = opSend
	} else {
		b[0] = opReceive
	}
	binary.LittleEndian.PutUint32(b[1:], uint32(o.Peer))
	binary.LittleEndian.PutUint32(b[5:], uint32(o.Count))
	return b
}

func decodeOrder(b []byte) (*loadbalance.Order, error) {
	if len(b) != 9 {
		return nil, fmt.Errorf("core: order is %d bytes, want 9", len(b))
	}
	o := &loadbalance.Order{
		Peer:  int(binary.LittleEndian.Uint32(b[1:])),
		Count: int(binary.LittleEndian.Uint32(b[5:])),
	}
	switch b[0] {
	case opNone:
		return nil, nil
	case opSend:
		o.Op = loadbalance.Send
	case opReceive:
		o.Op = loadbalance.Receive
	default:
		return nil, fmt.Errorf("core: order has unknown opcode %d", b[0])
	}
	return o, nil
}

// encodeBoundary packs a donor's new domain boundary (edge index +
// value, §3.2.5).
func encodeBoundary(edge int, value float64) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b, uint32(edge))
	binary.LittleEndian.PutUint64(b[4:], math.Float64bits(value))
	return b
}

func decodeBoundary(b []byte) (edge int, value float64, err error) {
	if len(b) != 12 {
		return 0, 0, fmt.Errorf("core: boundary is %d bytes, want 12", len(b))
	}
	return int(binary.LittleEndian.Uint32(b)),
		math.Float64frombits(binary.LittleEndian.Uint64(b[4:])), nil
}

// encodeEdges packs a full domain-edge table for the manager's
// broadcast of new dimensions.
func encodeEdges(edges []float64) []byte {
	b := make([]byte, 8*len(edges))
	for i, e := range edges {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(e))
	}
	return b
}

func decodeEdges(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("core: edge table of %d bytes not a multiple of 8", len(b))
	}
	edges := make([]float64, len(b)/8)
	for i := range edges {
		edges[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return edges, nil
}

// ---------------------------------------------------------------------
// Batched-schedule codecs (§3.3): one message carries all systems.
// Every multi-system codec is a generic wrapper over its single-system
// codec — a fixed-width sequence for the control records, a counted
// sequence of self-sizing slots for the particle payloads.
// ---------------------------------------------------------------------

// encodeFixedSeq concatenates fixed-width records encoded by enc.
func encodeFixedSeq[T any](items []T, enc func(T) []byte) []byte {
	var buf []byte
	for _, it := range items {
		buf = append(buf, enc(it)...)
	}
	return buf
}

// decodeFixedSeq splits b into n records of width bytes each and
// decodes them with dec, rejecting any length mismatch.
func decodeFixedSeq[T any](b []byte, n, width int, what string, dec func([]byte) (T, error)) ([]T, error) {
	if n < 0 || len(b) != n*width {
		return nil, fmt.Errorf("core: %s of %d bytes, want %d", what, len(b), n*width)
	}
	out := make([]T, n)
	for i := range out {
		v, err := dec(b[i*width : (i+1)*width])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// encodeCountedSeq concatenates variable-width slots behind a u32
// count. Every slot must carry its own size (see decodeCountedSeq).
func encodeCountedSeq(slots [][]byte) []byte {
	size := 4
	for _, s := range slots {
		size += len(s)
	}
	buf := make([]byte, 4, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(slots)))
	for _, s := range slots {
		buf = append(buf, s...)
	}
	return buf
}

// decodeCountedSeq splits a counted payload back into its slots. size
// reads the full width of the slot at the head of its argument (which
// is guaranteed at least 4 bytes). Corrupt input — short headers,
// truncated slots, trailing bytes — returns an error, never garbage.
func decodeCountedSeq(b []byte, what string, size func([]byte) int) ([][]byte, error) {
	return decodeCountedSeqInto(nil, b, what, size)
}

// decodeCountedSeqInto is decodeCountedSeq appending into dst[:0] — the
// reusable-scratch form for per-frame decode paths.
func decodeCountedSeqInto(dst [][]byte, b []byte, what string, size func([]byte) int) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: %s of %d bytes has no header", what, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := dst[:0]
	if cap(out) == 0 {
		// Every slot needs at least its 4-byte count, which bounds a sane
		// n; capping the allocation keeps a corrupt count from exhausting
		// memory before the truncation check rejects it.
		capHint := n
		if maxSlots := len(b) / 4; capHint > maxSlots {
			capHint = maxSlots
		}
		out = make([][]byte, 0, capHint)
	}
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("core: %s truncated at slot %d", what, i)
		}
		sz := size(b)
		if sz < 4 || sz > len(b) {
			return nil, fmt.Errorf("core: %s slot %d needs %d bytes, have %d", what, i, sz, len(b))
		}
		out = append(out, b[:sz])
		b = b[sz:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("core: %s has %d trailing bytes", what, len(b))
	}
	return out, nil
}

// encodeCountedSeqPooled is encodeCountedSeq for slots that were
// themselves drawn from the wire pool: the combined payload comes from
// the pool (its receiver releases it) and every consumed slot buffer
// goes straight back.
//
//pslint:hotpath
//pslint:pooled
func encodeCountedSeqPooled(slots [][]byte) []byte {
	size := 4
	for _, s := range slots {
		size += len(s)
	}
	buf := bufpool.Get(size)
	binary.LittleEndian.PutUint32(buf, uint32(len(slots)))
	off := 4
	for _, s := range slots {
		off += copy(buf[off:], s)
		bufpool.Put(s)
	}
	return buf
}

// encodeMultiBatch concatenates particle batches (one per (system,
// create-action) slot, or one per system) behind a count prefix.
//
//pslint:pooled
func encodeMultiBatch(batches [][]particle.Particle) []byte {
	return encodeCountedSeqPooled(encodeFixedSeqSlots(batches, particle.EncodeBatch))
}

// encodeFixedSeqSlots maps a slice through a per-item encoder, giving
// encodeCountedSeq its slots.
func encodeFixedSeqSlots[T any](items []T, enc func(T) []byte) [][]byte {
	slots := make([][]byte, len(items))
	for i, it := range items {
		slots[i] = enc(it)
	}
	return slots
}

// splitMultiBatch splits a multi-batch payload into its raw per-slot
// batch payloads without decoding them — callers stream each slot
// through a reusable columnar decode scratch.
func splitMultiBatch(b []byte) ([][]byte, error) {
	return decodeCountedSeq(b, "multi-batch", func(rest []byte) int {
		return particle.BatchBytes(int(binary.LittleEndian.Uint32(rest)))
	})
}

// decodeMultiBatch splits a multi-batch back into its per-slot batches.
func decodeMultiBatch(b []byte) ([][]particle.Particle, error) {
	slots, err := splitMultiBatch(b)
	if err != nil {
		return nil, err
	}
	out := make([][]particle.Particle, len(slots))
	for i, s := range slots {
		ps, err := particle.DecodeBatch(s)
		if err != nil {
			return nil, err
		}
		out[i] = ps
	}
	return out, nil
}

// encodeMultiWire packs columnar batches (one per system) behind a
// count prefix — byte-identical to encodeMultiBatch of the equivalent
// slices.
func encodeMultiWire(batches []*particle.Batch) []byte {
	slots := make([][]byte, len(batches))
	for i := range batches {
		slots[i] = batches[i].EncodeWire()
	}
	return encodeCountedSeqPooled(slots)
}

// encodeMultiReports packs one load report per system.
func encodeMultiReports(rs []loadbalance.Report) []byte {
	return encodeFixedSeq(rs, encodeLoadReport)
}

// decodeMultiReports unpacks nSys load reports.
func decodeMultiReports(b []byte, nSys int) ([]loadbalance.Report, error) {
	return decodeFixedSeq(b, nSys, 16, "multi-report", decodeLoadReport)
}

// encodeMultiOrders packs one (possibly nil) order per system.
func encodeMultiOrders(os []*loadbalance.Order) []byte {
	return encodeFixedSeq(os, encodeOrder)
}

// decodeMultiOrders unpacks nSys orders.
func decodeMultiOrders(b []byte, nSys int) ([]*loadbalance.Order, error) {
	return decodeFixedSeq(b, nSys, 9, "multi-order", decodeOrder)
}

// encodeMultiEdges packs every system's edge table (all tables have the
// same length, nCalc+1).
func encodeMultiEdges(tables [][]float64) []byte {
	return encodeFixedSeq(tables, encodeEdges)
}

// decodeMultiEdges unpacks nSys edge tables of edgeLen entries each.
func decodeMultiEdges(b []byte, nSys, edgeLen int) ([][]float64, error) {
	return decodeFixedSeq(b, nSys, edgeLen*8, "multi-edges", decodeEdges)
}

// encodeBoundarySys tags a donor boundary with its system index for the
// batched schedule's interleaved donations.
func encodeBoundarySys(sys, edge int, value float64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint32(b, uint32(sys))
	copy(b[4:], encodeBoundary(edge, value))
	return b
}

func decodeBoundarySys(b []byte) (sys, edge int, value float64, err error) {
	if len(b) != 16 {
		return 0, 0, 0, fmt.Errorf("core: sys-boundary is %d bytes, want 16", len(b))
	}
	sys = int(binary.LittleEndian.Uint32(b))
	edge, value, err = decodeBoundary(b[4:])
	return sys, edge, value, err
}

// encodeMultiRender concatenates per-system render batches behind a
// count prefix. The blobs are pooled encodeRenderSet buffers and are
// consumed (returned to the pool); the combined payload is pooled too,
// released by its receiver.
//
//pslint:pooled
func encodeMultiRender(blobs [][]byte) []byte {
	return encodeCountedSeqPooled(blobs)
}

// renderSlotSize reads the full width of the render blob at the head of
// a multi-render payload.
func renderSlotSize(rest []byte) int {
	return 4 + int(binary.LittleEndian.Uint32(rest))*renderRecordSize
}

// decodeMultiRender splits a multi-render payload into its per-system
// render batches.
func decodeMultiRender(b []byte) ([][]byte, error) {
	return decodeMultiRenderInto(nil, b)
}

// decodeMultiRenderInto is decodeMultiRender appending into a reusable
// slot slice — the image generator's per-frame gather scratch.
func decodeMultiRenderInto(dst [][]byte, b []byte) ([][]byte, error) {
	return decodeCountedSeqInto(dst, b, "multi-render", renderSlotSize)
}

// renderRecordSize is the compact on-wire size of one particle sent to
// the image generator: position (3×f32), color (3×f32), alpha and size
// (f32 each).
const renderRecordSize = 32

// putRenderRecord writes one 32-byte render record at b[off:].
//
//pslint:hotpath
func putRenderRecord(b []byte, off int, pos, color geom.Vec3, alpha, size float64) {
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

// encodeRenderRecords appends a columnar batch's render records at
// b[off:], returning the next offset.
//
//pslint:hotpath
func encodeRenderRecords(b []byte, off int, batch *particle.Batch) int {
	for i := range batch.Pos {
		putRenderRecord(b, off, batch.Pos[i], batch.Color[i], batch.Alpha[i], batch.Size[i])
		off += renderRecordSize
	}
	return off
}

// encodeRenderBatch packs particles into compact render records with a
// count prefix. Both engines hash frames through this quantization, so
// sequential and parallel checksums agree bit-for-bit. The buffer is
// pooled: its send's receiver releases it.
//
//pslint:hotpath
//pslint:pooled
func encodeRenderBatch(ps []particle.Particle) []byte {
	b := bufpool.Get(4 + len(ps)*renderRecordSize)
	binary.LittleEndian.PutUint32(b, uint32(len(ps)))
	off := 4
	for i := range ps {
		putRenderRecord(b, off, ps[i].Pos, ps[i].Color, ps[i].Alpha, ps[i].Size)
		off += renderRecordSize
	}
	return b
}

// encodeRenderSet packs a store's particles into compact render
// records straight from its bin columns, in store iteration order —
// byte-identical to encodeRenderBatch(st.All()) without materializing
// the particle slice. The buffer is pooled: its send's receiver
// releases it.
//
//pslint:hotpath
//pslint:pooled
func encodeRenderSet(st *particle.ColumnStore) []byte {
	b := bufpool.Get(4 + st.Len()*renderRecordSize)
	binary.LittleEndian.PutUint32(b, uint32(st.Len()))
	// Index the bins directly: the closure-free walk keeps the
	// steady-state render send at zero allocations.
	off := 4
	for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
		off = encodeRenderRecords(b, off, st.Bin(bi))
	}
	return b
}

// decodeRenderColumns unpacks compact render records straight into
// batch columns (only the rendering columns are populated).
func decodeRenderColumns(b []byte) (*particle.Batch, error) {
	cols := &particle.Batch{}
	if err := decodeRenderColumnsInto(cols, b); err != nil {
		return nil, err
	}
	return cols, nil
}

// decodeRenderColumnsInto unpacks compact render records into a
// reusable batch, truncating it first — the image generator's
// per-message decode scratch.
//
//pslint:hotpath
func decodeRenderColumnsInto(cols *particle.Batch, b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("core: render batch of %d bytes has no header", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != n*renderRecordSize {
		return fmt.Errorf("core: render batch of %d records needs %d bytes, have %d",
			n, n*renderRecordSize, len(b))
	}
	cols.Clear()
	cols.Grow(n)
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		rec := b[i*renderRecordSize:]
		cols.Pos[i] = geom.V(
			float64(math.Float32frombits(le.Uint32(rec))),
			float64(math.Float32frombits(le.Uint32(rec[4:]))),
			float64(math.Float32frombits(le.Uint32(rec[8:]))))
		cols.Color[i] = geom.V(
			float64(math.Float32frombits(le.Uint32(rec[12:]))),
			float64(math.Float32frombits(le.Uint32(rec[16:]))),
			float64(math.Float32frombits(le.Uint32(rec[20:]))))
		cols.Alpha[i] = float64(math.Float32frombits(le.Uint32(rec[24:])))
		cols.Size[i] = float64(math.Float32frombits(le.Uint32(rec[28:])))
	}
	return nil
}

// decodeRenderBatch unpacks compact render records into particles (only
// the rendering fields are populated).
func decodeRenderBatch(b []byte) ([]particle.Particle, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: render batch of %d bytes has no header", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != n*renderRecordSize {
		return nil, fmt.Errorf("core: render batch of %d records needs %d bytes, have %d",
			n, n*renderRecordSize, len(b))
	}
	ps := make([]particle.Particle, n)
	for i := range ps {
		rec := b[i*renderRecordSize:]
		getF32 := func(off int) float64 {
			return float64(math.Float32frombits(binary.LittleEndian.Uint32(rec[off:])))
		}
		ps[i].Pos = geom.V(getF32(0), getF32(4), getF32(8))
		ps[i].Color = geom.V(getF32(12), getF32(16), getF32(20))
		ps[i].Alpha = getF32(24)
		ps[i].Size = getF32(28)
	}
	return ps, nil
}

// hashRenderRecords returns an order-independent digest of a render
// batch: the modular sum of per-record FNV hashes. Both engines use it
// as the frame checksum when rasterization is off; because addition
// commutes, the arrival order of calculator batches cannot change it.
func hashRenderRecords(b []byte) uint64 {
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
