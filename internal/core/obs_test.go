package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"pscluster/internal/obs"
	"pscluster/internal/obs/live"
)

// profiledVariants enumerates the run shapes the observability layer
// must cover: both schedules, every LB mode that each supports.
func profiledVariants() map[string]Scenario {
	batched := func(lb LBMode, mode SpaceMode) Scenario {
		scn := miniSnow(lb, mode)
		scn.Schedule = BatchedSchedule
		return scn
	}
	return map[string]Scenario{
		"per-system/DLB": miniSnow(DynamicLB, InfiniteSpace),
		"per-system/DEC": miniSnow(DecentralizedLB, FiniteSpace),
		"batched/SLB":    batched(StaticLB, FiniteSpace),
		"batched/DLB":    batched(DynamicLB, InfiniteSpace),
	}
}

// The tentpole's core guarantee: turning recording on must not change
// the run by a single bit — same checksums, same virtual times, same
// model counters.
func TestProfiledRunIsBitNeutral(t *testing.T) {
	for name, scn := range profiledVariants() {
		t.Run(name, func(t *testing.T) {
			plain, err := RunParallel(scn, testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			traced, prof, err := RunParallelProfiled(scn, testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			if prof == nil {
				t.Fatal("profiled run returned no profile")
			}
			if traced.Time != plain.Time {
				t.Errorf("Time differs: traced %v vs plain %v", traced.Time, plain.Time)
			}
			if len(traced.FrameChecksums) != len(plain.FrameChecksums) {
				t.Fatalf("frame counts differ")
			}
			for f := range plain.FrameChecksums {
				if traced.FrameChecksums[f] != plain.FrameChecksums[f] {
					t.Fatalf("frame %d checksum differs under profiling", f)
				}
			}
			for i, pt := range plain.PerProcTime {
				if traced.PerProcTime[i] != pt {
					t.Errorf("proc %d clock differs: %v vs %v", i, traced.PerProcTime[i], pt)
				}
			}
			if traced.ExchangedParticles != plain.ExchangedParticles ||
				traced.LBMoved != plain.LBMoved ||
				traced.MsgsSent != plain.MsgsSent {
				t.Error("model counters differ under profiling")
			}
		})
	}
}

// Send-side and receive-side traffic totals must balance: everything
// sent is consumed (satellite: receive-side transport stats).
func TestSendRecvTotalsBalance(t *testing.T) {
	for name, scn := range profiledVariants() {
		t.Run(name, func(t *testing.T) {
			res, prof, err := RunParallelProfiled(scn, testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			if res.MsgsSent == 0 {
				t.Fatal("no traffic recorded")
			}
			if res.MsgsRecv != res.MsgsSent {
				t.Errorf("messages: sent %d, received %d", res.MsgsSent, res.MsgsRecv)
			}
			if res.BytesRecv != res.BytesSent {
				t.Errorf("bytes: sent %d, received %d", res.BytesSent, res.BytesRecv)
			}
			// The metrics registry must agree with the Result totals.
			snap := prof.Registry.Snapshot()
			if got := snap.SumCounter("pscluster_msgs_sent_total"); got != float64(res.MsgsSent) {
				t.Errorf("metric msgs_sent %v != result %d", got, res.MsgsSent)
			}
			if got := snap.SumCounter("pscluster_msgs_recv_total"); got != float64(res.MsgsRecv) {
				t.Errorf("metric msgs_recv %v != result %d", got, res.MsgsRecv)
			}
			if got := snap.SumCounter("pscluster_bytes_recv_total"); got != float64(res.BytesRecv) {
				t.Errorf("metric bytes_recv %v != result %d", got, res.BytesRecv)
			}
		})
	}
}

// The run-level metrics added by assembleProfile must mirror the Result.
func TestProfileMetricsMatchResult(t *testing.T) {
	res, prof, err := RunParallelProfiled(miniSnow(DynamicLB, InfiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	snap := prof.Registry.Snapshot()
	checks := map[string]float64{
		"pscluster_frames_total":              float64(res.Frames),
		"pscluster_exchanged_particles_total": float64(res.ExchangedParticles),
		"pscluster_exchanged_bytes_total":     float64(res.ExchangedBytes),
		"pscluster_lb_moved_particles_total":  float64(res.LBMoved),
		"pscluster_lb_rounds_total":           float64(res.LBRounds),
	}
	for name, want := range checks {
		if got := snap.SumCounter(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if snap.SumCounter("pscluster_lb_evaluations_total") == 0 {
		t.Error("no LB evaluations counted under DLB")
	}
	// Per-process clock gauges must carry the exact per-proc times.
	for rank, want := range res.PerProcTime {
		found := false
		for _, g := range snap.Gauges {
			if g.Name == "pscluster_proc_time_seconds" && g.Labels["rank"] == strconv.Itoa(rank) {
				found = true
				if g.Value != want {
					t.Errorf("proc_time_seconds{rank=%d} = %v, want %v", rank, g.Value, want)
				}
			}
		}
		if !found {
			t.Errorf("no proc_time_seconds gauge for rank %d", rank)
		}
	}
	// Delivery-latency histogram: one observation per frame.
	if len(snap.Histograms) == 0 {
		t.Fatal("no histograms in snapshot")
	}
	for _, h := range snap.Histograms {
		if h.Name == "pscluster_frame_delivery_latency_seconds" && h.Count != res.Frames {
			t.Errorf("delivery histogram has %d samples for %d frames", h.Count, res.Frames)
		}
	}
}

// The Chrome trace export must be valid trace-event JSON: complete
// events sorted by timestamp, durations non-negative, ranks as tids,
// and every wire message present as a sender→receiver flow pair joined
// by its correlation id.
func TestProfileChromeTraceValid(t *testing.T) {
	_, prof, err := RunParallelProfiled(miniSnow(DynamicLB, FiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prof.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			ID   string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	lastTs := -1.0
	var complete int
	flows := map[string][2]int{} // id → count of s / f events
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			complete++
			if ev.Ts < lastTs {
				t.Fatalf("complete events out of order: ts %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
		case "s", "f":
			if ev.ID == "" {
				t.Fatalf("flow event %q without id", ev.Name)
			}
			c := flows[ev.ID]
			if ev.Ph == "s" {
				c[0]++
			} else {
				c[1]++
			}
			flows[ev.ID] = c
		default:
			t.Fatalf("unexpected event type %q", ev.Ph)
		}
		if ev.Dur < 0 {
			t.Errorf("negative duration on %q", ev.Name)
		}
		if ev.Tid < 0 || ev.Tid >= 6 {
			t.Errorf("tid %d outside the run's ranks", ev.Tid)
		}
	}
	if complete < 100 {
		t.Errorf("only %d complete events for an 8-frame 3-system run", complete)
	}
	if len(flows) == 0 {
		t.Fatal("no flow events: wire messages are not stitched")
	}
	for id, c := range flows {
		if c[0] != 1 || c[1] != 1 {
			t.Errorf("flow %s has %d start / %d finish events, want 1/1", id, c[0], c[1])
		}
	}
	// Every consumed message of the run should appear as one flow pair.
	if want := len(prof.Msgs) / 2; len(flows) < want {
		t.Errorf("%d flow pairs for %d recv events", len(flows), want)
	}
}

// The Prometheus export must parse: every line a comment or a
// "name{labels} value" sample with a valid float, one TYPE per family.
func TestProfilePrometheusParses(t *testing.T) {
	_, prof, err := RunParallelProfiled(miniSnow(DynamicLB, FiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prof.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	for _, ln := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(ln, "# TYPE ") {
			fields := strings.Fields(ln)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE header %q", ln)
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(ln, "# HELP ") {
			continue
		}
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", ln)
		}
		if fields[1] != "+Inf" {
			if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
				t.Fatalf("bad sample value in %q: %v", ln, err)
			}
		}
		// The family (name up to { or a histogram suffix) must be typed.
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t2 := strings.TrimSuffix(name, suffix); t2 != name && typed[t2] {
				name = t2
				break
			}
		}
		if !typed[name] {
			t.Errorf("sample %q precedes its TYPE header", ln)
		}
	}
	for _, want := range []string{
		"pscluster_msgs_sent_total", "pscluster_msgs_recv_total",
		"pscluster_frames_total", "pscluster_proc_time_seconds",
		"pscluster_frame_delivery_latency_seconds",
	} {
		if !typed[want] {
			t.Errorf("metric family %s missing from exposition", want)
		}
	}
}

// Per-rank compute/comm/idle fractions must sum to one over the whole
// run, for every profiled process.
func TestProfileTimelineFractionsSum(t *testing.T) {
	_, prof, err := RunParallelProfiled(miniSnow(DynamicLB, FiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Ranks) != 6 {
		t.Fatalf("%d rank timelines, want 6", len(prof.Ranks))
	}
	for _, tl := range prof.Ranks {
		comp, comm, idle := tl.Breakdown(0, tl.Frames())
		sum := comp + comm + idle
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("rank %d fractions sum to %v (%v/%v/%v)", tl.Rank, sum, comp, comm, idle)
		}
		if comp < 0 || comm < 0 || idle < 0 {
			t.Errorf("rank %d negative fraction: %v/%v/%v", tl.Rank, comp, comm, idle)
		}
	}
	// The terminal rendering of those fractions must not error.
	var buf bytes.Buffer
	if err := prof.WriteTimeline(&buf, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "manager") ||
		!strings.Contains(buf.String(), "calculator 0") {
		t.Errorf("timeline missing roles:\n%s", buf.String())
	}
}

// Satellite: the Figure-2 phase ordering must hold with more
// calculators than systems under DLB, where balancing reshapes domains
// every frame.
func TestFigure2PhaseOrderManyCalculators(t *testing.T) {
	scn := miniSnow(DynamicLB, InfiniteSpace)
	scn.Frames = 3
	_, prof, err := RunParallelProfiled(scn, testCluster(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure2Order(t, prof, DynamicLB, 5)
}

// Profiled batched runs must record the batched phase names; the
// per-system schedule must tag spans with their system.
func TestProfileSpanPhases(t *testing.T) {
	scn := miniSnow(DynamicLB, FiniteSpace)
	_, prof, err := RunParallelProfiled(scn, testCluster(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	systems := map[int]bool{}
	for _, s := range prof.Spans {
		phases[s.Phase] = true
		systems[s.System] = true
	}
	for _, want := range []string{
		"particle-creation", "lb-evaluation", "dims-broadcast",
		"addition", "calculus", "exchange", "load-information",
		"render-send", "new-dims", "load-balance",
		"render-collect", "image-generation", "frame-barrier",
	} {
		if !phases[want] {
			t.Errorf("per-system profile missing phase %q (got %v)", want, keys(phases))
		}
	}
	if !systems[0] || !systems[1] || !systems[2] {
		t.Errorf("per-system spans missing system tags: %v", systems)
	}

	scn.Schedule = BatchedSchedule
	_, prof, err = RunParallelProfiled(scn, testCluster(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prof.Spans {
		if s.System != -1 {
			t.Fatalf("batched span %q tagged with system %d", s.Phase, s.System)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Profiling twice must give identical profiles — the recorder is as
// deterministic as the engine.
func TestProfileDeterministic(t *testing.T) {
	run := func() (*obs.Profile, *Result) {
		res, prof, err := RunParallelProfiled(miniSnow(DynamicLB, InfiniteSpace), testCluster(4), 4)
		if err != nil {
			t.Fatal(err)
		}
		return prof, res
	}
	p1, r1 := run()
	p2, r2 := run()
	if r1.Time != r2.Time {
		t.Fatalf("times differ")
	}
	if len(p1.Spans) != len(p2.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(p1.Spans), len(p2.Spans))
	}
	for i := range p1.Spans {
		if p1.Spans[i] != p2.Spans[i] {
			t.Fatalf("span %d differs:\n%+v\n%+v", i, p1.Spans[i], p2.Spans[i])
		}
	}
	var b1, b2 bytes.Buffer
	if err := p1.Registry.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := p2.Registry.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("metric expositions differ between identical runs")
	}
}

// A quick reference for humans reading the tests: the profile of even a
// tiny run carries spans for every process.
func TestProfileCoversAllRanks(t *testing.T) {
	_, prof, err := RunParallelProfiled(miniSnow(StaticLB, FiniteSpace), testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	byRank := map[int]int{}
	for _, s := range prof.Spans {
		byRank[s.Rank]++
	}
	for rank := 0; rank < 4; rank++ {
		if byRank[rank] == 0 {
			t.Errorf("no spans from rank %d (%s)", rank, fmt.Sprint(byRank))
		}
	}
}

// TestServedRunProfileBitNeutral is the live telemetry plane's
// acceptance gate: attaching a live sink (the real plane, watchdogs and
// all) must not change the run by a single bit. The Figure-2 facts —
// frame checksums, per-rank virtual clocks, phase spans — and the
// profile's metrics exposition must be byte-identical, JSON to JSON,
// between a served run and an unserved one.
func TestServedRunProfileBitNeutral(t *testing.T) {
	for name, scn := range profiledVariants() {
		t.Run(name, func(t *testing.T) {
			plain, plainProf, err := RunParallelProfiled(scn, testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			plane := live.NewPlane(live.Options{Window: 4, FrameBudget: 1e-9})
			served, servedProf, err := RunParallelServed(scn, testCluster(4), 4, plane)
			if err != nil {
				t.Fatal(err)
			}
			if plane.Published() != scn.Frames*6 {
				t.Fatalf("plane saw %d records, want %d", plane.Published(), scn.Frames*6)
			}
			// The absurd 1ns frame budget guarantees the watchdog tripped
			// and captured dumps mid-run — the hostile case for neutrality.
			if plane.LastDump() == nil {
				t.Fatal("watchdog never tripped under a 1ns budget")
			}
			f2 := func(r *Result, p *obs.Profile) []byte {
				doc, err := json.Marshal(struct {
					Checksums []uint64   `json:"checksums"`
					Clocks    []float64  `json:"clocks"`
					Spans     []obs.Span `json:"spans"`
				}{r.FrameChecksums, r.PerProcTime, p.Spans})
				if err != nil {
					t.Fatal(err)
				}
				return doc
			}
			if !bytes.Equal(f2(plain, plainProf), f2(served, servedProf)) {
				t.Fatal("served run's F2 JSON differs from unserved run")
			}
			var a, b bytes.Buffer
			if err := plainProf.Registry.WritePrometheus(&a); err != nil {
				t.Fatal(err)
			}
			if err := servedProf.Registry.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("served run's metrics exposition differs from unserved run")
			}
		})
	}
}
