package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pscluster/internal/obs"
	"pscluster/internal/transport"
)

// record builds a synthetic frame record with a ranked registry holding
// a msgs-sent counter at the given value and a clock gauge.
func record(rank, frame int, start, end float64, sent float64) obs.FrameRecord {
	reg := obs.NewRegistry()
	reg.SetRank(rank)
	reg.Counter("pscluster_msgs_sent_total", "wire messages sent").Add(sent)
	reg.Gauge("pscluster_vclock_seconds", "virtual clock", "rank", fmt.Sprint(rank)).Set(end)
	return obs.FrameRecord{
		Rank: rank, Role: fmt.Sprintf("role-%d", rank), Frame: frame,
		Start: start, End: end, Clock: end,
		Reg: reg,
	}
}

func TestRingWindowKeepsLastN(t *testing.T) {
	r := NewRing(4)
	// Every call must hand the lock back, on an empty window too: a held
	// lock would block the rank's next Push forever.
	unlocked := func(op string) {
		t.Helper()
		if !r.mu.TryLock() {
			t.Fatalf("%s left the ring locked", op)
		}
		r.mu.Unlock()
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("fresh ring Len=%d, want 0", n)
	}
	unlocked("Len on an empty window")
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh ring snapshot holds %d records, want 0", len(got))
	}
	unlocked("Snapshot of an empty window")
	r.Push(obs.FrameRecord{Rank: 2, Frame: -1})
	if n := r.Len(); n != 1 {
		t.Fatalf("Len=%d after one Push, want 1", n)
	}
	unlocked("Push")

	for f := 0; f < 10; f++ {
		r.Push(obs.FrameRecord{Rank: 2, Frame: f})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("Len=%d Cap=%d, want 4/4", r.Len(), r.Cap())
	}
	got := r.Snapshot()
	for i, fr := range got {
		if want := 6 + i; fr.Frame != want {
			t.Fatalf("snapshot[%d].Frame = %d, want %d (oldest→newest)", i, fr.Frame, want)
		}
	}
}

func TestPlaneStatusAndMergedMetrics(t *testing.T) {
	p := NewPlane(Options{})
	// Publish out of rank order: the merge must still be deterministic.
	p.PublishFrame(record(2, 5, 0, 1, 10))
	p.PublishFrame(record(0, 5, 0, 1, 3))
	p.PublishFrame(record(1, 4, 0, 1, 7))

	st := p.Status()
	if st.Frame != 5 || st.Published != 3 {
		t.Fatalf("Status frame/published = %d/%d, want 5/3", st.Frame, st.Published)
	}
	if len(st.Ranks) != 3 || st.Ranks[0].Rank != 0 || st.Ranks[2].Rank != 2 {
		t.Fatalf("Status.Ranks not ascending: %+v", st.Ranks)
	}

	merged := p.MergedRegistry()
	var b strings.Builder
	if err := merged.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("merged /metrics text invalid: %v\n%s", err, text)
	}
	if got := merged.Counter("pscluster_msgs_sent_total", "").Value(); got != 20 {
		t.Fatalf("merged msgs_sent = %v, want 20", got)
	}
	if got := merged.Counter("pscluster_live_frames_published_total", "").Value(); got != 3 {
		t.Fatalf("frames_published = %v, want 3", got)
	}
}

func TestWatchdogFrameOverrunExplicitBudget(t *testing.T) {
	p := NewPlane(Options{FrameBudget: 0.1})
	p.PublishFrame(record(2, 0, 0, 0.05, 1)) // within budget
	if d := p.LastDump(); d != nil {
		t.Fatalf("unexpected dump: %+v", d)
	}
	p.PublishFrame(record(2, 1, 0.05, 0.5, 2)) // 0.45s > 0.1s budget
	d := p.LastDump()
	if d == nil || d.Reason != WatchdogFrameOverrun || d.Rank != 2 || d.Frame != 1 {
		t.Fatalf("dump = %+v, want frame-overrun on rank 2 frame 1", d)
	}
	if len(d.Records) != 2 {
		t.Fatalf("dump holds %d records, want the full window (2)", len(d.Records))
	}
	if got := p.Status().Watchdogs; len(got) != 1 || got[0].Kind != WatchdogFrameOverrun || got[0].Trips != 1 {
		t.Fatalf("watchdog status = %+v", got)
	}
}

func TestWatchdogFrameBudgetAutoCalibrates(t *testing.T) {
	p := NewPlane(Options{CalibrationFrames: 3, BudgetFactor: 2})
	clock := 0.0
	push := func(frame int, dur float64) {
		p.PublishFrame(record(2, frame, clock, clock+dur, 1))
		clock += dur
	}
	// Calibration: mean 0.1s → budget 0.2s. No trips during calibration.
	push(0, 0.1)
	push(1, 0.1)
	push(2, 0.1)
	push(3, 0.15) // under the 0.2s budget
	if d := p.LastDump(); d != nil {
		t.Fatalf("tripped under budget: %+v", d)
	}
	push(4, 0.3) // over
	d := p.LastDump()
	if d == nil || d.Reason != WatchdogFrameOverrun || d.Frame != 4 {
		t.Fatalf("dump = %+v, want frame-overrun at frame 4", d)
	}
}

func TestWatchdogQueueDepth(t *testing.T) {
	p := NewPlane(Options{QueueLimit: 10})
	fr := record(3, 0, 0, 0.01, 1)
	fr.Queue = 11
	p.PublishFrame(fr)
	d := p.LastDump()
	if d == nil || d.Reason != WatchdogQueueDepth {
		t.Fatalf("dump = %+v, want queue-depth trip", d)
	}
}

func TestWatchdogLBThrash(t *testing.T) {
	p := NewPlane(Options{ThrashRun: 3})
	push := func(frame, orders int) {
		fr := record(0, frame, float64(frame), float64(frame)+0.01, 1)
		fr.LBOrders = orders
		p.PublishFrame(fr)
	}
	// Orders grow two frames in a row, then go quiet: no trip.
	push(0, 1)
	push(1, 2)
	push(2, 2)
	if d := p.LastDump(); d != nil {
		t.Fatalf("tripped on a converging balancer: %+v", d)
	}
	// Three consecutive growing frames: trip.
	push(3, 3)
	push(4, 5)
	push(5, 6)
	d := p.LastDump()
	if d == nil || d.Reason != WatchdogLBThrash || d.Frame != 5 {
		t.Fatalf("dump = %+v, want lb-thrash at frame 5", d)
	}
}

// stitchedPair returns send/recv records for ranks 0→2 whose message
// events share a correlation stamp.
func stitchedPair() (snd, rcv obs.FrameRecord) {
	corr := transport.MakeCorr(3, 0, 0)
	snd = record(0, 3, 0, 0.1, 1)
	snd.Spans = []obs.Span{{Rank: 0, Frame: 3, System: -1, Phase: "send", Start: 0, End: 0.1}}
	snd.Msgs = []obs.MsgEvent{{Corr: corr, Frame: 3, Rank: 0, Peer: 2,
		Tag: "particles", Bytes: 64, Send: true, T: 0.05}}
	rcv = record(2, 3, 0, 0.2, 1)
	rcv.Spans = []obs.Span{{Rank: 2, Frame: 3, System: -1, Phase: "recv", Start: 0, End: 0.2}}
	rcv.Msgs = []obs.MsgEvent{{Corr: corr, Frame: 3, Rank: 2, Peer: 0,
		Tag: "particles", Bytes: 64, T: 0.15}}
	return snd, rcv
}

func TestHandlerEndpoints(t *testing.T) {
	p := NewPlane(Options{QueueLimit: 10})
	snd, rcv := stitchedPair()
	p.PublishFrame(snd)
	p.PublishFrame(rcv)

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	get := func(path string, wantCode int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, wantCode, body)
		}
		return body
	}

	if body := get("/healthz", 200); !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("/healthz = %q", body)
	}

	metrics := get("/metrics", 200)
	if err := obs.ValidateExposition(strings.NewReader(string(metrics))); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, metrics)
	}
	if !strings.Contains(string(metrics), "pscluster_msgs_sent_total") {
		t.Fatalf("/metrics lacks engine counter family:\n%s", metrics)
	}

	var st Status
	if err := json.Unmarshal(get("/status", 200), &st); err != nil {
		t.Fatalf("/status: %v", err)
	}
	if st.Published != 2 || len(st.Ranks) != 2 {
		t.Fatalf("/status = %+v", st)
	}

	// /trace: the shared Corr stamp must become a flow-event pair.
	var trace struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/trace", 200), &trace); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	flows := map[string][]string{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "s" || ev.Ph == "f" {
			flows[ev.ID] = append(flows[ev.ID], ev.Ph)
		}
	}
	if len(flows) != 1 {
		t.Fatalf("want 1 stitched flow, got %d (%v)", len(flows), flows)
	}
	for id, phs := range flows {
		if len(phs) != 2 {
			t.Fatalf("flow %s has phases %v, want a s/f pair", id, phs)
		}
	}

	// /flight: per-frame records with metric deltas.
	var flight struct {
		Frames []struct {
			Rank     int                  `json:"rank"`
			Counters []obs.SnapshotMetric `json:"counters"`
		} `json:"frames"`
	}
	if err := json.Unmarshal(get("/flight", 200), &flight); err != nil {
		t.Fatalf("/flight: %v", err)
	}
	if len(flight.Frames) != 2 || len(flight.Frames[0].Counters) == 0 {
		t.Fatalf("/flight = %+v", flight)
	}

	// No watchdog has tripped: the dump views 404.
	get("/trace?dump=last", 404)
	get("/flight?dump=last", 404)

	// Trip the queue watchdog; the dump views go live.
	over := record(2, 4, 0.2, 0.3, 2)
	over.Queue = 99
	p.PublishFrame(over)
	get("/trace?dump=last", 200)
	var dump struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(get("/flight?dump=last", 200), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Reason != WatchdogQueueDepth {
		t.Fatalf("dump reason = %q, want %q", dump.Reason, WatchdogQueueDepth)
	}

	// pprof is mounted.
	get("/debug/pprof/cmdline", 200)
}

func TestServeBindsAndCloses(t *testing.T) {
	p := NewPlane(Options{})
	s, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz on %s: %v", s.Addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
