package live

import (
	"sync"

	"pscluster/internal/obs"
)

// Ring is the flight recorder's fixed-capacity frame window for one
// rank: the last N published FrameRecords, oldest evicted first. Writes
// and reads take the ring's lock — one uncontended acquisition per
// frame on the publish path, so the recorder stays cheap enough to
// leave on for every run.
type Ring struct {
	mu   sync.Mutex
	buf  []obs.FrameRecord
	next int // index the next Push writes to
	n    int // live records, <= len(buf)
}

// NewRing builds a ring holding the last `capacity` frame records.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring{buf: make([]obs.FrameRecord, capacity)}
}

// Push files one frame record, evicting the oldest when full.
func (r *Ring) Push(fr obs.FrameRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = fr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Snapshot copies the window, oldest to newest.
func (r *Ring) Snapshot() []obs.FrameRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]obs.FrameRecord, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Len returns how many records the window currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the window capacity in frames.
func (r *Ring) Cap() int { return len(r.buf) }
