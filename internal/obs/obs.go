// Package obs is the observability layer of the engine: per-process
// phase-span recording in virtual time, a metrics registry
// (counters / gauges / histograms), and exporters for Chrome trace-event
// JSON (Perfetto-loadable), Prometheus text exposition, a JSON snapshot
// and a terminal per-calculator timeline.
//
// The design mirrors the transport substrate's concurrency model: every
// process goroutine owns one Recorder (reached through its Endpoint) and
// records with zero synchronization; the recorders are merged into a
// Profile only after the run's WaitGroup barrier. Recording reads the
// virtual clocks but never advances them, so a profiled run is
// bit-identical — same frame checksums, same virtual times — to an
// unprofiled one.
package obs

import (
	"cmp"
	"slices"
	"sort"
	"strconv"

	"pscluster/internal/transport"
)

// Span is one Figure-2 phase interval on one process, in virtual time.
// System is -1 for phases not tied to a particle system (frame barriers,
// image generation, batched-schedule phases covering all systems).
type Span struct {
	Rank   int     `json:"rank"`
	Frame  int     `json:"frame"`
	System int     `json:"system"`
	Phase  string  `json:"phase"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// MsgEvent is one observed wire message on one side of the transport:
// the sender's and receiver's events of the same message share a Corr
// stamp, which is what stitches their span trees together in a trace.
type MsgEvent struct {
	Corr  transport.CorrID `json:"corr"`
	Frame int              `json:"frame"` // the observing rank's frame
	Rank  int              `json:"rank"`  // the observing rank
	Peer  int              `json:"peer"`  // the other end of the message
	Tag   string           `json:"tag"`
	Bytes int              `json:"bytes"`
	Send  bool             `json:"send"`           // true on the sender side
	T     float64          `json:"t"`              // virtual clock after the op
	Wait  float64          `json:"wait,omitempty"` // receive: blocked time
}

// Recorder collects one process's spans, message events, per-frame
// wait/comm accumulators and metrics. It is owned by a single goroutine
// and does no locking; a nil *Recorder is valid and records nothing, so
// call sites need no guards.
type Recorder struct {
	rank int
	role string
	reg  *Registry

	spans    []Span
	msgs     []MsgEvent
	frame    int     // current frame, -1 before the first BeginFrame
	lastMark float64 // end of the previous span — start of the next

	// frameSpanLo/frameMsgLo index the first span / message event of the
	// current frame, so the live sink can snapshot one frame cheaply.
	frameSpanLo int
	frameMsgLo  int
	sink        FrameSink // nil unless a live telemetry plane is attached

	frameStart []float64
	frameEnd   []float64
	wait       []float64 // blocked-receive time per frame (clock-fuse delta)
	comm       []float64 // send packing + receive serialization per frame

	lastDelivered float64 // image generator: previous frame completion
}

// NewRecorder returns a recorder for one process. role is the display
// name used by the exporters ("manager", "calculator 0", ...).
func NewRecorder(rank int, role string) *Recorder {
	reg := NewRegistry()
	reg.SetRank(rank)
	return &Recorder{rank: rank, role: role, reg: reg, frame: -1}
}

// Role returns the recorder's display role.
func (r *Recorder) Role() string {
	if r == nil {
		return ""
	}
	return r.role
}

// Registry returns the recorder's process-local metrics registry.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// BeginFrame opens frame f at virtual time t: subsequent spans and
// message costs are attributed to it.
func (r *Recorder) BeginFrame(f int, t float64) {
	if r == nil || f < 0 {
		return
	}
	for len(r.frameStart) <= f {
		r.frameStart = append(r.frameStart, 0)
		r.frameEnd = append(r.frameEnd, 0)
		r.wait = append(r.wait, 0)
		r.comm = append(r.comm, 0)
	}
	r.frame = f
	r.frameStart[f] = t
	r.frameEnd[f] = t
	r.lastMark = t
	r.frameSpanLo = len(r.spans)
	r.frameMsgLo = len(r.msgs)
}

// Phase closes the span that started at the previous mark: everything
// since then was this phase, ending at t.
func (r *Recorder) Phase(system int, phase string, t float64) {
	if r == nil {
		return
	}
	start := r.lastMark
	if t < start {
		t = start
	}
	r.spans = append(r.spans, Span{
		Rank: r.rank, Frame: r.frame, System: system,
		Phase: phase, Start: start, End: t,
	})
	r.lastMark = t
}

// EndFrame closes the current frame at virtual time t.
func (r *Recorder) EndFrame(t float64) {
	if r == nil || r.frame < 0 {
		return
	}
	r.frameEnd[r.frame] = t
}

// ---------------------------------------------------------------------
// Live frame publishing (the telemetry plane's snapshot hook)
// ---------------------------------------------------------------------

// FrameRecord is one rank's frame as published to a live telemetry
// sink: the frame's spans and message events, a clone of the rank's
// metrics registry, and the role-specific status gauges the pipeline
// runner annotates. Everything in a published record is immutable — the
// sink may hand it to other goroutines freely.
type FrameRecord struct {
	Rank  int     `json:"rank"`
	Role  string  `json:"role"`
	Frame int     `json:"frame"`
	Start float64 `json:"start"` // frame-open virtual time
	End   float64 `json:"end"`   // frame-close virtual time
	Clock float64 `json:"clock"` // virtual clock at publish

	// Role-specific status, filled by the pipeline runner.
	Queue      int `json:"queue"`                // receive-queue depth at frame end
	Particles  int `json:"particles,omitempty"`  // calculators: stored particles
	LBRounds   int `json:"lbRounds,omitempty"`   // manager: balancing rounds so far
	LBOrders   int `json:"lbOrders,omitempty"`   // manager: balancing orders so far
	FramesDone int `json:"framesDone,omitempty"` // image generator: frames delivered

	Spans []Span     `json:"spans,omitempty"`
	Msgs  []MsgEvent `json:"msgs,omitempty"`
	Reg   *Registry  `json:"-"` // cloned registry; immutable after publish
}

// FrameSink receives one FrameRecord per rank per frame, called from
// each rank's own goroutine at its frame boundary. Implementations must
// be safe for concurrent calls from different ranks and must not block
// for long — the publishing rank's wall-clock progress (never its
// virtual clock) stalls while PublishFrame runs.
type FrameSink interface {
	PublishFrame(FrameRecord)
}

// AttachSink connects a live telemetry sink to the recorder. Attach
// before the run starts; the pipeline runner publishes one FrameRecord
// per frame through it.
func (r *Recorder) AttachSink(s FrameSink) {
	if r == nil {
		return
	}
	r.sink = s
}

// LiveEnabled reports whether a sink is attached.
func (r *Recorder) LiveEnabled() bool { return r != nil && r.sink != nil }

// SnapshotFrame freezes the current frame as a FrameRecord: the frame's
// spans and message events are copied and the registry deep-cloned, so
// the record shares no mutable state with the recorder. The runner fills
// the role-specific fields before publishing.
func (r *Recorder) SnapshotFrame(t float64) FrameRecord {
	fr := FrameRecord{
		Rank: r.rank, Role: r.role, Frame: r.frame, Clock: t,
		Spans: append([]Span(nil), r.spans[r.frameSpanLo:]...),
		Msgs:  append([]MsgEvent(nil), r.msgs[r.frameMsgLo:]...),
		Reg:   r.reg.Clone(),
	}
	if r.frame >= 0 && r.frame < len(r.frameStart) {
		fr.Start = r.frameStart[r.frame]
		fr.End = r.frameEnd[r.frame]
	}
	return fr
}

// Publish hands a frame record to the attached sink (no-op when none).
func (r *Recorder) Publish(fr FrameRecord) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.PublishFrame(fr)
}

// FrameDelivered records a frame-completion at t on the image
// generator's delivery-latency histogram (the inter-frame interval, the
// cadence the animation's viewer experiences).
func (r *Recorder) FrameDelivered(t float64) {
	if r == nil {
		return
	}
	r.reg.Histogram("pscluster_frame_delivery_latency_seconds",
		"virtual time between successive frame completions",
		DefDurationBuckets).Observe(t - r.lastDelivered)
	r.lastDelivered = t
}

// MsgSent implements the transport observer's send side: corr is the
// message's stitching stamp, pack the sender-side packing time already
// charged to the clock.
func (r *Recorder) MsgSent(to int, tag string, bytes int, corr transport.CorrID, pack, now float64) {
	if r == nil {
		return
	}
	if r.frame >= 0 && r.frame < len(r.comm) {
		r.comm[r.frame] += pack
	}
	r.msgs = append(r.msgs, MsgEvent{
		Corr: corr, Frame: r.frame, Rank: r.rank, Peer: to,
		Tag: tag, Bytes: bytes, Send: true, T: now,
	})
	rank := strconv.Itoa(r.rank)
	r.reg.Counter("pscluster_msgs_sent_total",
		"messages sent, by rank and tag", "rank", rank, "tag", tag).Inc()
	r.reg.Counter("pscluster_bytes_sent_total",
		"billed bytes sent, by rank and tag", "rank", rank, "tag", tag).Add(float64(bytes))
}

// MsgRecv implements the transport observer's receive side: corr is the
// stamp the sender assigned, wait the blocked time (the clock-fuse
// delta), ser the serialization time, both already charged to the clock.
func (r *Recorder) MsgRecv(from int, tag string, bytes int, corr transport.CorrID, wait, ser, now float64) {
	if r == nil {
		return
	}
	if r.frame >= 0 && r.frame < len(r.wait) {
		r.wait[r.frame] += wait
		r.comm[r.frame] += ser
	}
	r.msgs = append(r.msgs, MsgEvent{
		Corr: corr, Frame: r.frame, Rank: r.rank, Peer: from,
		Tag: tag, Bytes: bytes, T: now, Wait: wait,
	})
	rank := strconv.Itoa(r.rank)
	r.reg.Counter("pscluster_msgs_recv_total",
		"messages received, by rank and tag", "rank", rank, "tag", tag).Inc()
	r.reg.Counter("pscluster_bytes_recv_total",
		"billed bytes received, by rank and tag", "rank", rank, "tag", tag).Add(float64(bytes))
	r.reg.Counter("pscluster_recv_wait_seconds_total",
		"blocked-receive virtual time, by rank", "rank", rank).Add(wait)
}

// RankTimeline is one process's per-frame time accounting.
type RankTimeline struct {
	Rank       int       `json:"rank"`
	Role       string    `json:"role"`
	FrameStart []float64 `json:"frameStart"`
	FrameEnd   []float64 `json:"frameEnd"`
	Wait       []float64 `json:"wait"`
	Comm       []float64 `json:"comm"`
}

// Frames returns how many frames the timeline covers.
func (tl *RankTimeline) Frames() int { return len(tl.FrameStart) }

// Breakdown splits frames [lo, hi) of the rank's time into compute,
// communication and idle fractions that sum to 1 (all zero when the
// window is empty).
func (tl *RankTimeline) Breakdown(lo, hi int) (compute, comm, idle float64) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(tl.FrameStart) {
		hi = len(tl.FrameStart)
	}
	var total, w, c float64
	for f := lo; f < hi; f++ {
		total += tl.FrameEnd[f] - tl.FrameStart[f]
		w += tl.Wait[f]
		c += tl.Comm[f]
	}
	if total <= 0 {
		return 0, 0, 0
	}
	compute = (total - w - c) / total
	if compute < 0 {
		compute = 0
	}
	return compute, c / total, w / total
}

// Profile is the merged observability record of one run.
type Profile struct {
	Spans    []Span
	Msgs     []MsgEvent
	Ranks    []RankTimeline
	Registry *Registry
}

// NewProfile merges per-process recorders (after the run's goroutine
// barrier) into one profile: spans sorted by start time, message events
// by timestamp, registries summed, timelines ordered by rank.
func NewProfile(recs ...*Recorder) *Profile {
	p := &Profile{}
	regs := make([]*Registry, 0, len(recs))
	for _, r := range recs {
		if r == nil {
			continue
		}
		p.Spans = append(p.Spans, r.spans...)
		p.Msgs = append(p.Msgs, r.msgs...)
		p.Ranks = append(p.Ranks, RankTimeline{
			Rank: r.rank, Role: r.role,
			FrameStart: r.frameStart, FrameEnd: r.frameEnd,
			Wait: r.wait, Comm: r.comm,
		})
		regs = append(regs, r.reg)
	}
	sort.SliceStable(p.Spans, func(i, j int) bool {
		if p.Spans[i].Start != p.Spans[j].Start {
			return p.Spans[i].Start < p.Spans[j].Start
		}
		return p.Spans[i].Rank < p.Spans[j].Rank
	})
	sort.SliceStable(p.Msgs, func(i, j int) bool {
		if p.Msgs[i].T != p.Msgs[j].T {
			return p.Msgs[i].T < p.Msgs[j].T
		}
		return p.Msgs[i].Rank < p.Msgs[j].Rank
	})
	sort.Slice(p.Ranks, func(i, j int) bool { return p.Ranks[i].Rank < p.Ranks[j].Rank })
	p.Registry = MergeRegistries(regs...)
	return p
}

// SpansByRank returns a copy of the spans in rank order, each rank's in
// program order: a stable sort by rank of Spans, which a rank records in
// program order and NewProfile sorts by start time.
func (p *Profile) SpansByRank() []Span {
	spans := slices.Clone(p.Spans)
	slices.SortStableFunc(spans, func(a, b Span) int { return cmp.Compare(a.Rank, b.Rank) })
	return spans
}

// Timeline returns the rank's timeline, or nil if the rank was not
// profiled.
func (p *Profile) Timeline(rank int) *RankTimeline {
	for i := range p.Ranks {
		if p.Ranks[i].Rank == rank {
			return &p.Ranks[i]
		}
	}
	return nil
}
