package transport

import (
	"pscluster/internal/cluster"
)

// Fabric is one process's handle on the cluster interconnect — the
// abstraction seam between the simulation engines and the transport
// that carries their messages. Two implementations exist:
//
//   - the virtual fabric (Endpoint, transport.go): the in-process
//     goroutine/channel router with the LogP virtual-time cost model,
//     the deterministic twin every bit-neutrality test runs against;
//   - the net fabric (NetFabric, net.go): length-prefixed TCP framing
//     between OS processes, carrying the same virtual-clock stamps so a
//     multi-process run reproduces the in-process run bit for bit.
//
// A Fabric is owned by a single goroutine (its process); Clock, Stats
// and the observer hook are not synchronized. Every outbound message is
// stamped with a CorrID derived from (frame, rank, send sequence) —
// SetFrame resets the sequence at frame boundaries — so cross-rank
// trace stitching works identically over both fabrics.
type Fabric interface {
	// Rank returns this process's rank.
	Rank() int
	// Clock returns the process's private virtual clock. Compute
	// advances it; sends and receives charge it through the cost model.
	Clock() *cluster.Clock
	// Stats returns the endpoint's live traffic counters.
	Stats() *Stats
	// SetObserver installs the per-message notification hook. Set it
	// before the run starts; it is called on the owning goroutine.
	SetObserver(Observer)
	// SetFrame marks the start of frame f for correlation stamping.
	SetFrame(f int)

	// Send transmits payload to process to, billed at its physical size.
	//
	// Every send consumes ownership of payload: the caller must not
	// read, reuse or Release the buffer after the call returns. On the
	// virtual fabric the unique receiver Releases it; on the net fabric
	// the sender returns it to bufpool once the frame drains. A
	// broadcast therefore encodes one buffer per destination — the
	// bufownership analyzer checks this contract (DESIGN.md §15).
	Send(to int, tag Tag, payload []byte)
	// SendScaled transmits payload billed at Billed(len(payload), ratio).
	SendScaled(to int, tag Tag, payload []byte, ratio float64)
	// SendSized transmits payload billed as bytes (>= len(payload)).
	// Sends never block on the receiver.
	SendSized(to int, tag Tag, payload []byte, bytes int)
	// Recv blocks until a message with the given tag from the given
	// sender is available, charges the receive-side cost model, and
	// returns it. Messages for other (sender, tag) pairs received
	// meanwhile are buffered.
	Recv(from int, tag Tag) Message
	// RecvFromEach receives exactly one message with the given tag from
	// every rank in froms, ordered as froms is.
	RecvFromEach(froms []int, tag Tag) []Message

	// QueueDepth returns how many inbound messages are waiting:
	// stashed-but-unmatched messages plus the inbound backlog.
	QueueDepth() int
	// Abort tears the run down: every blocked or future Send/Recv on
	// this fabric panics with ErrAborted. Idempotent.
	Abort()
	// Close releases the fabric's resources (connections, listeners).
	// The virtual fabric has none; Close is then a no-op.
	Close() error
}

// CostModel is the LogP-flavoured virtual-time accounting both fabrics
// charge: a per-byte sender packing cost, a network latency/bandwidth
// pair, and cheaper on-node figures for co-located processes. It was
// extracted from the virtual router so the net fabric bills the exact
// same virtual time — the cost model rides over the real network in the
// frame header, keeping multi-process runs bit-identical.
type CostModel struct {
	// Place maps ranks to nodes (for the on-node fast path).
	Place *cluster.Placement
	// Net is the modeled interconnect between nodes.
	Net cluster.Network

	// SendCPU is the sender-side per-byte packing cost in seconds.
	SendCPU float64
	// LocalLatency and LocalBandwidth apply between processes on the
	// same node (shared memory instead of the network).
	LocalLatency   float64
	LocalBandwidth float64
}

// DefaultCost returns the cost model the virtual router has always
// used: ~0.2 ns/byte packing, 1 µs / 2 GB/s on-node.
func DefaultCost(place *cluster.Placement, net cluster.Network) CostModel {
	return CostModel{
		Place:          place,
		Net:            net,
		SendCPU:        2e-10,
		LocalLatency:   1e-6,
		LocalBandwidth: 2e9,
	}
}

// latency returns the one-way message latency between two ranks.
func (cm *CostModel) latency(from, to int) float64 {
	if cm.Place.SameNode(from, to) {
		return cm.LocalLatency
	}
	return cm.Net.Latency
}

// bandwidth returns the link bandwidth between two ranks.
func (cm *CostModel) bandwidth(from, to int) float64 {
	if cm.Place.SameNode(from, to) {
		return cm.LocalBandwidth
	}
	return cm.Net.Bandwidth
}

// endpointCore is the fabric state shared by the virtual Endpoint and
// the TCP NetFabric: the rank, the private virtual clock, the traffic
// stats, the observer hook, the correlation stamping counters and the
// received-but-unmatched stash. It charges the cost model identically
// on both fabrics, which is what keeps a net run bit-identical to a
// virtual one. All fields are owner-goroutine only.
type endpointCore struct {
	rank  int
	cost  CostModel
	clock cluster.Clock
	stats Stats
	obs   Observer

	// frame and seq feed the CorrID stamped on every outbound message:
	// the engine's frame loop calls SetFrame at each frame boundary and
	// seq counts sends within the frame. Both are deterministic
	// functions of the run, so stamps are identical whether or not
	// anyone observes.
	frame int
	seq   int

	// pending holds received-but-unmatched messages, keyed by (from, tag).
	pending map[pendKey][]Message
}

type pendKey struct {
	from int
	tag  Tag
}

func newEndpointCore(rank int, cost CostModel) endpointCore {
	return endpointCore{rank: rank, cost: cost}
}

// Rank returns this endpoint's process rank.
func (e *endpointCore) Rank() int { return e.rank }

// Clock returns the process's private virtual clock.
func (e *endpointCore) Clock() *cluster.Clock { return &e.clock }

// Stats returns the endpoint's live traffic counters.
func (e *endpointCore) Stats() *Stats { return &e.stats }

// SetObserver installs the per-message notification hook.
func (e *endpointCore) SetObserver(o Observer) { e.obs = o }

// SetFrame marks the start of frame f for correlation stamping: the
// per-frame send sequence resets so outbound CorrIDs read
// (f, rank, 0..n). Called by the owning goroutine only.
func (e *endpointCore) SetFrame(f int) {
	e.frame = f
	e.seq = 0
}

// chargeSend applies the sender-side cost model and bookkeeping for one
// outbound message — packing cost, CorrID stamp, stats, observer — and
// returns the stamp and the message's ready time at the receiver. The
// operation order matches the historical Endpoint.SendSized exactly.
func (e *endpointCore) chargeSend(to int, tag Tag, payloadLen, bytes int) (CorrID, float64) {
	if to == e.rank {
		panic("transport: send to self")
	}
	if bytes < payloadLen {
		panic("transport: billed bytes smaller than payload")
	}
	pack := e.cost.SendCPU * float64(bytes)
	e.clock.Advance(pack)
	lat := e.cost.latency(e.rank, to)
	corr := MakeCorr(e.frame, e.rank, e.seq)
	e.seq++
	e.stats.MsgsSent++
	e.stats.BytesSent += bytes
	if e.obs != nil {
		e.obs.MsgSent(to, tag.String(), bytes, corr, pack, e.clock.Now())
	}
	return corr, e.clock.Now() + lat
}

// ingest applies the receive-side cost model to a consumed message and
// updates the receive-side statistics. The time spent blocked on the
// sender is the clock-fuse delta — the difference between the
// receiver's clock before the fuse and the message's ready time.
func (e *endpointCore) ingest(m Message) {
	wait := m.Ready - e.clock.Now()
	if wait < 0 {
		wait = 0
	}
	e.clock.Fuse(m.Ready)
	ser := float64(m.Bytes) / e.cost.bandwidth(m.From, e.rank)
	e.clock.Advance(ser)
	e.stats.MsgsRecv++
	e.stats.BytesRecv += m.Bytes
	if e.obs != nil {
		e.obs.MsgRecv(m.From, m.Tag.String(), m.Bytes, m.Corr, wait, ser, e.clock.Now())
	}
}

// takePending pops the oldest stashed message for key, if any. The
// queue shifts down in place instead of advancing the slice, so its
// backing array survives drain/refill cycles and the steady-state
// stash path allocates nothing (queues are a handful of messages).
func (e *endpointCore) takePending(key pendKey) (Message, bool) {
	q := e.pending[key]
	if len(q) == 0 {
		return Message{}, false
	}
	m := q[0]
	copy(q, q[1:])
	q[len(q)-1] = Message{} // drop the payload reference
	e.pending[key] = q[:len(q)-1]
	return m, true
}

// stash files a received-but-unmatched message under its (from, tag) key.
func (e *endpointCore) stash(m Message) {
	if e.pending == nil {
		e.pending = map[pendKey][]Message{}
	}
	key := pendKey{m.From, m.Tag}
	e.pending[key] = append(e.pending[key], m)
}

// PendingCount returns how many messages are buffered but unconsumed —
// zero at the end of a well-formed run.
func (e *endpointCore) PendingCount() int {
	n := 0
	for _, q := range e.pending {
		n += len(q)
	}
	return n
}
