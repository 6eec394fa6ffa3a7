package render

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pscluster/internal/particle"
)

// Plane is a tiled splatter: a fixed set of splat workers that share
// every ingested batch but own disjoint pixel rows of the framebuffer.
// The engine does not use it — every rank renders on its own goroutine
// (DESIGN §16) — and it stays only as a host-performance probe.
//
// Determinism: worker w owns exactly the rows y with y % width == w,
// and every worker receives every batch over its own FIFO queue in the
// ingest call order. A pixel is therefore touched by exactly one
// goroutine, in exactly the order a serial splatter would touch it, so
// the accumulated floats — and with them Checksum() and the PPM bytes —
// are bit-identical at any width.
//
// One goroutine ingests and barriers, the workers splat. The Plane is
// not safe for concurrent ingest from multiple goroutines (the
// per-queue FIFO order is the determinism contract).
type Plane struct {
	width   int
	queues  []chan planeOp
	wg      sync.WaitGroup
	closed  bool
	leases  sync.Pool // *planeBatch
	barrier sync.WaitGroup
}

// planeOp is one unit of worker work: splat a shared batch into the
// owned rows of fb, or (when bar is non-nil) report a barrier.
type planeOp struct {
	fb  *Framebuffer
	cam Camera
	b   *planeBatch
	bar *sync.WaitGroup
}

// planeBatch is a leased decode target shared by every worker; the last
// worker to finish returns it to the lease pool.
type planeBatch struct {
	cols particle.Batch
	refs atomic.Int32
}

// planeQueueDepth bounds each worker's pending-batch FIFO. Ingest
// blocks when a queue is full — pure backpressure, since workers always
// drain; the bound keeps a fast producer from buffering a whole frame.
const planeQueueDepth = 64

// NewPlane starts a plane of the given width (<= 0 means GOMAXPROCS).
// Close releases the goroutines.
func NewPlane(width int) *Plane {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &Plane{
		width:  width,
		queues: make([]chan planeOp, width),
	}
	for w := range p.queues {
		p.queues[w] = make(chan planeOp, planeQueueDepth)
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Ingest leases a batch, fills it via decode(batch, blob) on the
// calling goroutine, and hands it to every worker. Each worker splats
// only its owned rows; the batch returns to the lease pool when the
// last worker finishes. Decode errors surface before anything is
// enqueued.
func (p *Plane) Ingest(fb *Framebuffer, cam Camera, blob []byte, decode func(*particle.Batch, []byte) error) error {
	pb, _ := p.leases.Get().(*planeBatch)
	if pb == nil {
		pb = new(planeBatch)
	}
	if err := decode(&pb.cols, blob); err != nil {
		p.leases.Put(pb)
		return err
	}
	pb.refs.Store(int32(p.width))
	for _, q := range p.queues {
		q <- planeOp{fb: fb, cam: cam, b: pb}
	}
	return nil
}

// Barrier returns once every batch ingested so far has been fully
// splatted. The framebuffer is complete (and safe to read from the
// calling goroutine) when Barrier returns.
func (p *Plane) Barrier() {
	p.barrier.Add(p.width)
	for _, q := range p.queues {
		q <- planeOp{bar: &p.barrier}
	}
	p.barrier.Wait()
}

// Close drains the queues and stops every goroutine. Idempotent.
func (p *Plane) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
}

func (p *Plane) worker(w int) {
	defer p.wg.Done()
	for op := range p.queues[w] {
		if op.bar != nil {
			op.bar.Done()
			continue
		}
		op.fb.SplatColumnsOwned(op.cam, &op.b.cols, w, p.width)
		if op.b.refs.Add(-1) == 0 {
			p.leases.Put(op.b)
		}
	}
}
