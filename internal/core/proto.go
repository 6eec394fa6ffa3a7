package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"pscluster/internal/bufpool"
	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
	"pscluster/internal/particle"
)

// Wire encodings for the model's control messages (Figure 2 arrows) and
// the compact render record. All little-endian.

// Record widths of the fixed-width control codecs.
const (
	loadReportSize = 16
	orderSize      = 9
)

// putLoadReport writes a calculator's end-of-frame report at b[:16].
func putLoadReport(b []byte, r loadbalance.Report) {
	binary.LittleEndian.PutUint64(b, uint64(r.Load))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Time))
}

// encodeLoadReport packs one report as its own message.
func encodeLoadReport(r loadbalance.Report) []byte {
	b := make([]byte, loadReportSize)
	putLoadReport(b, r)
	return b
}

func decodeLoadReport(b []byte) (loadbalance.Report, error) {
	if len(b) != loadReportSize {
		return loadbalance.Report{}, fmt.Errorf("core: load report is %d bytes, want %d", len(b), loadReportSize)
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

// putOrder writes a load-balancing order for one calculator at b[:9]; a
// nil order encodes as a no-op (the manager always sends every
// calculator a message so the receive pattern stays deterministic).
func putOrder(b []byte, o *loadbalance.Order) {
	if o == nil {
		clear(b[:orderSize]) // opNone, and no stale peer or count
		return
	}
	if o.Op == loadbalance.Send {
		b[0] = opSend
	} else {
		b[0] = opReceive
	}
	binary.LittleEndian.PutUint32(b[1:], uint32(o.Peer))
	binary.LittleEndian.PutUint32(b[5:], uint32(o.Count))
}

func decodeOrder(b []byte) (*loadbalance.Order, error) {
	if len(b) != orderSize {
		return nil, fmt.Errorf("core: order is %d bytes, want %d", len(b), orderSize)
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

// putEdges writes a full domain-edge table at b[:8*len(edges)] for the
// manager's broadcast of new dimensions.
func putEdges(b []byte, edges []float64) {
	for i, e := range edges {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(e))
	}
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
// Multi-system codecs: one message carries every system of a group
// (schedule.go). The control records are fixed-width sequences whose
// record count both ends already know, so a sequence of one record is
// byte-for-byte the single record and an unframed group needs no codec
// of its own. The particle payloads are self-sizing slots behind a
// count; only sysGroup.pack/unpack decide when that count is on the
// wire.
// ---------------------------------------------------------------------

// encodeFixedSeq packs items as consecutive width-byte records, each
// written in place by put, into one exact-size buffer.
func encodeFixedSeq[T any](items []T, width int, put func([]byte, T)) []byte {
	buf := make([]byte, len(items)*width)
	for i, it := range items {
		put(buf[i*width:], it)
	}
	return buf
}

// decodeFixedSeq splits b into n records of width bytes each and
// decodes them with dec into dst[:0], rejecting any length mismatch.
func decodeFixedSeq[T any](dst []T, b []byte, n, width int, what string, dec func([]byte) (T, error)) ([]T, error) {
	if n < 0 || len(b) != n*width {
		return nil, fmt.Errorf("core: %s of %d bytes, want %d", what, len(b), n*width)
	}
	out := dst[:0]
	for i := 0; i < n; i++ {
		v, err := dec(b[i*width : (i+1)*width])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// decodeCountedSeq splits a counted payload back into its slots,
// appending them to dst[:0] (the per-frame decode paths pass reusable
// scratch). size reads the full width of the slot at the head of its
// argument (which is guaranteed at least 4 bytes). Corrupt input —
// short headers, truncated slots, trailing bytes — returns an error,
// never garbage.
func decodeCountedSeq(dst [][]byte, b []byte, what string, size func([]byte) int) ([][]byte, error) {
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

// encodeCountedSeq concatenates self-sizing slots behind a u32 count.
// The combined payload comes from the wire pool (its receiver releases
// it) and every consumed slot buffer goes straight back.
//
//pslint:pooled
func encodeCountedSeq(slots [][]byte) []byte {
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

// batchSlotSize reads the full width of the particle batch at the head
// of a counted payload.
func batchSlotSize(rest []byte) int {
	return particle.BatchBytes(int(binary.LittleEndian.Uint32(rest)))
}

// renderSlotSize reads the full width of the render blob at the head of
// a counted payload.
func renderSlotSize(rest []byte) int {
	return 4 + int(binary.LittleEndian.Uint32(rest))*renderRecordSize
}

// encodeMultiReports packs one load report per system.
func encodeMultiReports(rs []loadbalance.Report) []byte {
	return encodeFixedSeq(rs, loadReportSize, putLoadReport)
}

// decodeMultiReports unpacks nSys load reports into dst[:0].
func decodeMultiReports(dst []loadbalance.Report, b []byte, nSys int) ([]loadbalance.Report, error) {
	return decodeFixedSeq(dst, b, nSys, loadReportSize, "load reports", decodeLoadReport)
}

// encodeMultiOrders packs one (possibly nil) order per system.
func encodeMultiOrders(os []*loadbalance.Order) []byte {
	return encodeFixedSeq(os, orderSize, putOrder)
}

// decodeMultiOrders unpacks nSys orders into dst[:0].
func decodeMultiOrders(dst []*loadbalance.Order, b []byte, nSys int) ([]*loadbalance.Order, error) {
	return decodeFixedSeq(dst, b, nSys, orderSize, "orders", decodeOrder)
}

// encodeMultiEdges packs every system's edge table (all tables have the
// same length, nCalc+1).
func encodeMultiEdges(tables [][]float64) []byte {
	width := 0
	if len(tables) > 0 {
		width = 8 * len(tables[0])
	}
	return encodeFixedSeq(tables, width, putEdges)
}

// decodeMultiEdges unpacks nSys edge tables of exactly edgeLen entries
// each into dst[:0]: a table of any other size is rejected here, before
// anything indexes it by calculator.
func decodeMultiEdges(dst [][]float64, b []byte, nSys, edgeLen int) ([][]float64, error) {
	return decodeFixedSeq(dst, b, nSys, edgeLen*8, "edge tables", decodeEdges)
}

// encodeBoundarySys tags a donor boundary with its system index, for
// groups whose donations interleave several systems.
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

// renderRecordSize is the compact on-wire size of one particle sent to
// the image generator: position (3×f32), color (3×f32), alpha and size
// (f32 each).
const renderRecordSize = 32

// putRenderRecord writes one 32-byte render record at b[off:]. The
// record is sliced once, with its capacity capped, so the eight stores
// at constant offsets need one bounds check between them.
func putRenderRecord(b []byte, off int, pos, color geom.Vec3, alpha, size float64) {
	r := b[off : off+renderRecordSize : off+renderRecordSize]
	le := binary.LittleEndian
	le.PutUint32(r[0:], math.Float32bits(float32(pos.X)))
	le.PutUint32(r[4:], math.Float32bits(float32(pos.Y)))
	le.PutUint32(r[8:], math.Float32bits(float32(pos.Z)))
	le.PutUint32(r[12:], math.Float32bits(float32(color.X)))
	le.PutUint32(r[16:], math.Float32bits(float32(color.Y)))
	le.PutUint32(r[20:], math.Float32bits(float32(color.Z)))
	le.PutUint32(r[24:], math.Float32bits(float32(alpha)))
	le.PutUint32(r[28:], math.Float32bits(float32(size)))
}

// encodeRenderRecords appends a columnar batch's render records at
// b[off:], returning the next offset.
func encodeRenderRecords(b []byte, off int, batch *particle.Batch) int {
	for i := range batch.Pos {
		putRenderRecord(b, off, batch.Pos[i], batch.Color[i], batch.Alpha[i], batch.Size[i])
		off += renderRecordSize
	}
	return off
}

// encodeRenderSet packs a store's particles into compact render
// records with a count prefix, straight from its bin columns in store
// order. Every engine hashes frames through this quantization, so
// sequential and parallel checksums agree bit-for-bit. The buffer is
// pooled: its send's receiver releases it.
//
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

// renderBatchLen checks a render batch's count header against its
// length and returns the record count. Every ingest path runs it, so
// the image generator rejects the same malformed blobs whether it
// rasterizes them or only hashes them.
func renderBatchLen(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("core: render batch of %d bytes has no header", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b)-4 != n*renderRecordSize {
		return 0, fmt.Errorf("core: render batch of %d records needs %d bytes, have %d",
			n, n*renderRecordSize, len(b)-4)
	}
	return n, nil
}

// decodeRenderColumnsInto unpacks compact render records into a
// reusable batch, truncating it first — the image generator's
// per-message decode scratch.
func decodeRenderColumnsInto(cols *particle.Batch, b []byte) error {
	n, err := renderBatchLen(b)
	if err != nil {
		return err
	}
	b = b[4:]
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

// FNV-1a, 64 bit: the per-record hash of the render checksum.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashRenderRecords returns an order-independent digest of a render
// batch: the modular sum of per-record FNV-1a hashes. Both engines use
// it as the frame checksum when rasterization is off; because addition
// commutes, the arrival order of calculator batches cannot change it.
// A trailing partial record is not hashed.
//
// Each record's hash is a chain of 32 dependent multiplies, so four
// records are hashed in lock-step, one byte of each per step: four
// independent chains the CPU overlaps. The per-record hashes, and so
// the sum, are exactly the one-record loop's, which takes the 0–3
// records left over.
func hashRenderRecords(b []byte) uint64 {
	if len(b) < 4 {
		return 0
	}
	b = b[4:]
	const rs = renderRecordSize
	var sum uint64
	for ; len(b) >= 4*rs; b = b[4*rs:] {
		r0, r1, r2, r3 := b[0:rs:rs], b[rs:2*rs:2*rs], b[2*rs:3*rs:3*rs], b[3*rs:4*rs:4*rs]
		h0, h1, h2, h3 := fnvOffset, fnvOffset, fnvOffset, fnvOffset
		for i := 0; i < rs; i++ {
			h0 = (h0 ^ uint64(r0[i])) * fnvPrime
			h1 = (h1 ^ uint64(r1[i])) * fnvPrime
			h2 = (h2 ^ uint64(r2[i])) * fnvPrime
			h3 = (h3 ^ uint64(r3[i])) * fnvPrime
		}
		sum += h0 + h1 + h2 + h3
	}
	for ; len(b) >= rs; b = b[rs:] {
		h := fnvOffset
		for _, c := range b[:rs:rs] {
			h = (h ^ uint64(c)) * fnvPrime
		}
		sum += h
	}
	return sum
}
