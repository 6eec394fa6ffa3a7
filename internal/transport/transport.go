// Package transport is the message-passing substrate of the model — the
// stand-in for the MPI layer the paper's library used. The engines talk
// to an abstract Fabric (fabric.go); this file implements the virtual
// fabric, where processes are goroutines and each owns an Endpoint with
// a private virtual clock. The net fabric (net.go) carries the same
// protocol between OS processes over TCP.
//
// The cost model is LogGP-flavoured with receiver occupancy:
//
//   - the sender pays a small per-byte packing cost and stamps the
//     message with its "ready" time (sender clock + network latency);
//   - the receiver, on a blocking Recv, first fuses its clock to the
//     ready time and then pays the serialization cost bytes/bandwidth.
//
// Charging serialization at the receiver makes n senders into one
// process (the image generator collecting every particle of a frame)
// contend for that process's link, exactly the bottleneck the paper's
// Fast-Ethernet results exhibit.
//
// Messages can be billed for more bytes than they physically carry:
// experiments run at a reduced particle count with a representation
// ratio R, and bill R× the encoded size so virtual times match the
// paper's full-scale runs.
//
// Because every phase of the model has a deterministic communication
// pattern and gathers are processed in sender-rank order, runs are
// bit-reproducible regardless of goroutine scheduling.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"pscluster/internal/bufpool"
	"pscluster/internal/cluster"
)

// ErrAborted is the panic value raised out of blocked Send/Recv calls
// when the run is torn down by Abort. Process wrappers recover it and
// exit quietly.
var ErrAborted = errors.New("transport: run aborted")

// Tag classifies messages by the model phase they belong to (Figure 2).
type Tag uint8

// Message tags, one per arrow kind in the paper's Figure 2.
const (
	TagParticles   Tag = iota // manager→calc creation scatter, calc→calc exchange
	TagEndOfStream            // end-of-transmission notification (§3.2.1)
	TagLoadReport             // calc→manager load + time information
	TagLBOrder                // manager→calc load balancing orders
	TagNewDims                // calc→manager and manager→calc new domain dimensions
	TagRenderBatch            // calc→image generator particles for the frame
	TagFrameDone              // image generator frame completion marker
	TagLBParticles            // calc→calc balancing donation
	TagGhosts                 // calc→calc boundary-band ghosts for collision detection

	numTags // sentinel — keep last; Tag.String's names table must match
)

// String names the tag.
func (t Tag) String() string {
	names := [...]string{
		"particles", "end-of-stream", "load-report", "lb-order",
		"new-dims", "render-batch", "frame-done", "lb-particles", "ghosts",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("tag(%d)", int(t))
}

// CorrID is the cross-rank trace-stitching stamp every wire message
// carries: (frame, sender rank, per-frame send sequence) packed into a
// uint64. The observability layer uses it to connect the sender's and
// receiver's span trees in one trace; over the net fabric the same ID
// travels in the frame header and the stitching works across OS
// processes unchanged.
type CorrID uint64

// MakeCorr packs (frame, rank, seq) into a CorrID. Frame occupies the
// high 24 bits above rank's 16 above seq's 24 — comfortably beyond any
// run the engine simulates; values are masked, never validated, so a
// degenerate input wraps rather than panics.
func MakeCorr(frame, rank, seq int) CorrID {
	return CorrID(uint64(frame&0xffffff)<<40 | uint64(rank&0xffff)<<24 | uint64(seq&0xffffff))
}

// Frame returns the sender's frame number at send time.
func (c CorrID) Frame() int { return int(c >> 40 & 0xffffff) }

// Rank returns the sending rank.
func (c CorrID) Rank() int { return int(c >> 24 & 0xffff) }

// Seq returns the per-frame send sequence number on the sending rank.
func (c CorrID) Seq() int { return int(c & 0xffffff) }

// Message is one virtual-time-stamped datagram.
type Message struct {
	From, To int
	Tag      Tag
	Payload  []byte
	Ready    float64 // earliest arrival time at the receiver
	Bytes    int     // billed size (>= len(Payload) under scaling)
	Corr     CorrID  // trace-stitching stamp assigned by the sender
}

// Release returns the message's payload to the wire-buffer pool and
// clears it. Call it only after the payload is fully decoded, and at
// most once. Under the ownership contract (DESIGN.md §15) every send
// carries a buffer encoded for that destination alone — broadcasts
// encode per peer — so the receiver uniquely owns the payload on both
// fabrics and may always Release it. A missed Release merely leaves
// the buffer to the garbage collector; a double Release would hand the
// same backing memory to two users, which is why the bufownership
// analyzer checks both sides of the contract.
func (m *Message) Release() {
	if m.Payload == nil {
		return
	}
	bufpool.Put(m.Payload)
	m.Payload = nil
}

// Stats counts an endpoint's traffic on both sides, in billed bytes.
// Receive-side counters cover consumed messages only (a well-formed run
// consumes everything it was sent, so run totals balance). Per-tag
// traffic is an Observer's to count.
type Stats struct {
	MsgsSent  int
	BytesSent int

	MsgsRecv  int
	BytesRecv int
}

// Observer receives per-message notifications from an endpoint — the
// hook the observability layer hangs its recorder on. Implementations
// must not advance clocks or otherwise perturb the run; every duration
// reported here has already been charged. All calls happen on the
// endpoint-owning goroutine.
type Observer interface {
	// MsgSent fires after a send: corr is the message's stitching stamp,
	// pack the sender-side packing time, now the sender clock after it.
	MsgSent(to int, tag string, bytes int, corr CorrID, pack, now float64)
	// MsgRecv fires after a message is consumed: corr is the stamp the
	// sender assigned, wait the blocked time (the clock-fuse delta to the
	// message's ready time), ser the receive-side serialization time, now
	// the receiver clock after both.
	MsgRecv(from int, tag string, bytes int, corr CorrID, wait, ser, now float64)
}

// Router connects the processes of one in-process run. Inboxes are
// buffered channels; capacity is sized so that the model's
// phase-structured communication can never fill one.
type Router struct {
	inboxes []chan Message

	abort     chan struct{}
	abortOnce sync.Once

	// Cost is the virtual-time accounting shared with every Endpoint
	// the router hands out. Adjust it before the first Endpoint call.
	Cost CostModel
}

// NewRouter builds a router for every process of the placement.
func NewRouter(place *cluster.Placement, net cluster.Network) *Router {
	r := &Router{
		inboxes: make([]chan Message, place.NumProcs()),
		abort:   make(chan struct{}),
		Cost:    DefaultCost(place, net),
	}
	for i := range r.inboxes {
		r.inboxes[i] = make(chan Message, 1<<14)
	}
	return r
}

// Endpoint returns the virtual fabric for process rank.
func (r *Router) Endpoint(rank int) *Endpoint {
	return &Endpoint{
		endpointCore: newEndpointCore(rank, r.Cost),
		router:       r,
	}
}

// Endpoint is one process's handle on the virtual router — the
// in-process Fabric implementation. It is owned by a single goroutine;
// Clock, Stats and the observer are not synchronized.
type Endpoint struct {
	endpointCore
	router *Router
}

// Endpoint implements Fabric.
var _ Fabric = (*Endpoint)(nil)

// QueueDepth returns how many inbound messages are waiting on this
// endpoint: stashed-but-unmatched messages plus the inbox channel
// backlog. The channel length is safe to sample from any goroutine, but
// the pending map is owner-only — call QueueDepth from the owning
// goroutine (the live-telemetry frame hook does).
func (e *Endpoint) QueueDepth() int {
	return e.PendingCount() + len(e.router.inboxes[e.rank])
}

// Send transmits payload to process to, billed at its physical size.
func (e *Endpoint) Send(to int, tag Tag, payload []byte) {
	e.SendSized(to, tag, payload, len(payload))
}

// Billed inflates a payload size by a representation ratio, flooring at
// the physical size: each stored particle stands for ratio real ones,
// so the virtual traffic scales while the payload does not.
func Billed(payloadLen int, ratio float64) int {
	b := int(float64(payloadLen) * ratio)
	if b < payloadLen {
		b = payloadLen
	}
	return b
}

// SendScaled transmits payload billed at Billed(len(payload), ratio) —
// the send every particle-carrying message of the model uses.
func (e *Endpoint) SendScaled(to int, tag Tag, payload []byte, ratio float64) {
	e.SendSized(to, tag, payload, Billed(len(payload), ratio))
}

// SendSized transmits payload billed as bytes (bytes >= len(payload)
// when a representation ratio inflates the virtual traffic). The
// sender's clock advances by the packing cost; Send never blocks.
func (e *Endpoint) SendSized(to int, tag Tag, payload []byte, bytes int) {
	corr, ready := e.chargeSend(to, tag, len(payload), bytes)
	select {
	case e.router.inboxes[to] <- Message{
		From: e.rank, To: to, Tag: tag, Payload: payload,
		Ready: ready, Bytes: bytes, Corr: corr,
	}:
	case <-e.router.abort:
		panic(ErrAborted)
	}
}

// Abort tears the run down: every blocked or future Send/Recv on this
// router panics with ErrAborted, which process wrappers recover. Abort
// is idempotent.
func (r *Router) Abort() { r.abortOnce.Do(func() { close(r.abort) }) }

// Abort tears down the whole router this endpoint belongs to (every
// rank of the run, matching the net fabric's process-kill semantics).
func (e *Endpoint) Abort() { e.router.Abort() }

// Close is a no-op: the virtual fabric holds no OS resources.
func (e *Endpoint) Close() error { return nil }

// Recv blocks until a message with the given tag from the given sender
// is available, fuses the clock with its ready time, pays the ingest
// serialization cost, and returns it. Messages for other (sender, tag)
// pairs received meanwhile are buffered.
func (e *Endpoint) Recv(from int, tag Tag) Message {
	key := pendKey{from, tag}
	for {
		if m, ok := e.takePending(key); ok {
			e.ingest(m)
			return m
		}
		e.stashOne()
	}
}

// RecvFromEach receives exactly one message with the given tag from
// every rank in froms and returns them ordered as froms is — the
// deterministic gather used at phase boundaries.
func (e *Endpoint) RecvFromEach(froms []int, tag Tag) []Message {
	out := make([]Message, len(froms))
	for i, f := range froms {
		out[i] = e.Recv(f, tag)
	}
	return out
}

// stashOne blocks for the next inbound message and files it under its
// (from, tag) key.
func (e *Endpoint) stashOne() {
	var m Message
	select {
	case m = <-e.router.inboxes[e.rank]:
	case <-e.router.abort:
		panic(ErrAborted)
	}
	e.stash(m)
}
