package core

import (
	"runtime"
	"sort"
	"sync"

	"pscluster/internal/particle"
)

// Host-parallel compute plane: a calculator's per-frame kernels fan the
// sub-domain bins of its ColumnStore across a bounded pool of host
// goroutines. Parallelism is invisible to the model by construction:
//
//   - bins are disjoint slices of memory and per-particle kernels never
//     read another particle's state, so workers share nothing but the
//     read-only action and context;
//   - work is assigned by a deterministic partition computed before the
//     fan-out — a pure function of the bin count (run) or the bin sizes
//     (runBins), never of goroutine scheduling — so the bin→slot
//     mapping is reproducible;
//   - the virtual clock is charged after the barrier, by the caller, in
//     exactly the sequential order.
//
// A run with Workers=8 therefore produces bit-identical particle state,
// virtual times, traces and metrics to Workers=1.

// poolTask is one fan-out: the helper for slot w applies fn to every
// bin the assignment table maps to w, in ascending bin order, then
// signals wg. The table is read-only during the fan-out.
type poolTask struct {
	assign []int32
	w      int
	fn     func(bin, slot int)
	wg     *sync.WaitGroup
}

// workerStats accumulates what one worker slot processed. Slots are
// written by distinct goroutines during a fan-out; the padding keeps
// them on separate cache lines.
type workerStats struct {
	Bins      int
	Particles int
	_         [48]byte
}

// workerPool runs per-bin kernel applications across width goroutines:
// the owning calculator goroutine plus width-1 helpers. A nil pool or
// width 1 degrades to inline sequential execution.
type workerPool struct {
	width int
	tasks chan poolTask
	stats []workerStats
	bins  []*particle.Batch // scratch reused across fan-outs

	// Partitioner scratch, reused across fan-outs.
	assign []int32
	order  []int
	loads  []int64
}

// newWorkerPool returns a pool of the given width; width <= 0 means
// GOMAXPROCS. The width-1 helper goroutines live until Close.
func newWorkerPool(width int) *workerPool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{width: width, stats: make([]workerStats, width)}
	if width > 1 {
		p.tasks = make(chan poolTask)
		for i := 0; i < width-1; i++ {
			go helper(p.tasks)
		}
	}
	return p
}

// helper drains fan-out tasks until the pool closes. It takes the
// channel by value so Close's field reset cannot race with the loop.
func helper(tasks <-chan poolTask) {
	for t := range tasks {
		for i, s := range t.assign {
			if int(s) == t.w {
				t.fn(i, t.w)
			}
		}
		t.wg.Done()
	}
}

// fan executes one fan-out over a prepared assignment table: helpers
// take slots 1..width-1, the calling goroutine works slot 0, and the
// wg.Wait establishes the happens-before edge back to the caller.
func (p *workerPool) fan(assign []int32, width int, fn func(bin, slot int)) {
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		p.tasks <- poolTask{assign: assign, w: w, fn: fn, wg: &wg}
	}
	for i, s := range assign {
		if s == 0 {
			fn(i, 0)
		}
	}
	wg.Wait()
}

// run applies fn to every index in [0, n), fanning across the pool's
// slots round-robin (index i on slot i mod width — the equal-size
// special case of the partitioner). fn(i, slot) must touch only state
// owned by index i plus the per-slot statistics for slot.
func (p *workerPool) run(n int, fn func(bin, slot int)) {
	if p == nil || p.width <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	width := p.width
	if width > n {
		width = n
	}
	assign := p.scratchAssign(n)
	for i := range assign {
		assign[i] = int32(i % width)
	}
	p.fan(assign, width, fn)
}

// runBins applies fn to every bin, partitioning by bin size instead of
// position: longest-processing-time greedy — bins in descending size
// (ties in ascending bin order), each onto the least-loaded slot (ties
// to the lowest slot). Under skew — a clustered workload concentrating
// particles in a few sub-domains — round-robin striding can leave all
// heavy bins on one slot; LPT bounds the makespan at 4/3 of optimal.
// The partition is a pure function of the bin sizes, and the engine
// result never depends on it (bins are disjoint, clock charges happen
// in caller order), so any width stays bit-identical.
func (p *workerPool) runBins(bins []*particle.Batch, fn func(bin, slot int)) {
	n := len(bins)
	if p == nil || p.width <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	width := p.width
	if width > n {
		width = n
	}
	assign := p.scratchAssign(n)
	order := p.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	p.order = order
	sort.SliceStable(order, func(a, b int) bool {
		return bins[order[a]].Len() > bins[order[b]].Len()
	})
	loads := p.loads[:0]
	for s := 0; s < width; s++ {
		loads = append(loads, 0)
	}
	p.loads = loads
	for _, bi := range order {
		best := 0
		for s := 1; s < width; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		assign[bi] = int32(best)
		loads[best] += int64(bins[bi].Len())
	}
	p.fan(assign, width, fn)
}

// scratchAssign returns the pool's assignment scratch resized to n.
func (p *workerPool) scratchAssign(n int) []int32 {
	if cap(p.assign) < n {
		p.assign = make([]int32, n)
	}
	p.assign = p.assign[:n]
	return p.assign
}

// note records that slot processed one bin of the given particle count.
// Nil-safe so sequential fallback paths can report into a missing pool.
func (p *workerPool) note(slot, particles int) {
	if p == nil {
		return
	}
	p.stats[slot].Bins++
	p.stats[slot].Particles += particles
}

// totals sums the per-slot statistics — the width-independent aggregate
// the profile exports (the multiset of processed bins is fixed by the
// scenario, only its partition across slots varies with width).
func (p *workerPool) totals() (bins, particles int) {
	if p == nil {
		return 0, 0
	}
	for i := range p.stats {
		bins += p.stats[i].Bins
		particles += p.stats[i].Particles
	}
	return bins, particles
}

// parallelBins returns the store's non-empty bins as an indexable slice
// for a fan-out, or nil when the pool has one slot and the caller
// should walk the store with EachBatch instead.
func (p *workerPool) parallelBins(st *particle.ColumnStore) []*particle.Batch {
	if p == nil || p.width <= 1 {
		return nil
	}
	p.bins = st.AppendBins(p.bins[:0])
	return p.bins
}

// Close stops the helper goroutines. The pool must be idle. Nil-safe.
func (p *workerPool) Close() {
	if p == nil || p.tasks == nil {
		return
	}
	close(p.tasks)
	p.tasks = nil
}
