package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// The parent half of an end-to-end run: spawn one fresh child per
// (workload, repetition), verify its frames, and reduce the repetitions
// to medians.

// harness carries the settings every run of one invocation shares.
type harness struct {
	exe   string // this binary, re-executed for children
	procs int    // GOMAXPROCS handed to children
	seed  uint64
	scale scale
	// setupSamples is how many set-up-only children feed setup_s in
	// addition to the timed runs.
	setupSamples int
}

// runTimeout is how long a child may run before it is killed and all
// its frames fail: ten times the run's expected wall time.
func (h *harness) runTimeout() time.Duration {
	if h.scale == scaleSmoke {
		return 30 * time.Second
	}
	return 10 * nominalRunSeconds * time.Second
}

// spawn runs one child to completion and returns its report and the
// set-up time the parent observed: from just before the process was
// started to the child's engine call.
func (h *harness) spawn(mode string, spec []byte, timeout time.Duration) (ChildResult, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, "-child", mode, "-procs", strconv.Itoa(h.procs))
	cmd.Stdin = bytes.NewReader(spec)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 2 * time.Second
	var out bytes.Buffer
	cmd.Stdout = &out
	t0 := time.Now()
	err := cmd.Run()
	var res ChildResult
	if err != nil {
		if ctx.Err() != nil {
			return res, 0, fmt.Errorf("child %s exceeded %v and was killed", mode, timeout)
		}
		return res, 0, fmt.Errorf("child %s: %w", mode, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, 0, fmt.Errorf("child %s: bad report: %w", mode, err)
	}
	if !res.OK {
		return res, 0, fmt.Errorf("child %s: %s", mode, res.Error)
	}
	setup := float64(res.EngineStartUnixNs-t0.UnixNano()) / 1e9
	return res, setup, nil
}

// repResult is one verified repetition of one workload.
type repResult struct {
	values map[string]float64 // end-to-end metric values of this repetition
	frames int
	failed int
	err    error
}

// e2eValues turns a child report into the end-to-end metric values.
func e2eValues(res *ChildResult, setup float64) map[string]float64 {
	f := float64(res.Frames)
	return map[string]float64{
		"setup_s":              setup,
		"frames_per_s":         f / res.WallS,
		"cpu_ms_per_frame":     res.CPUS * 1e3 / f,
		"allocs_per_frame":     float64(res.Mallocs) / f,
		"alloc_mb_per_frame":   float64(res.AllocBytes) / 1e6 / f,
		"peak_rss_mb":          float64(res.MaxRSSKB) / 1e3,
		"virtual_s":            res.VirtualS,
		"imbalance_mean":       res.ImbalanceMean,
		"wire_bytes_per_frame": float64(res.BytesSent) / f,
		"msgs_per_frame":       float64(res.MsgsSent) / f,
	}
}

// runRep executes one timed, verified repetition.
func (h *harness) runRep(wr *workloadReport) repResult {
	w, frames := wr.w, wr.w.frames(h.scale)
	res, setup, err := h.spawn(modePlain, wr.spec, h.runTimeout())
	if err != nil {
		// An engine error, a panic or a timeout fails every frame.
		return repResult{frames: frames, failed: frames, err: err}
	}
	failed, verr := wr.v.check(w, res.Checksums)
	rep := repResult{values: e2eValues(&res, setup), frames: frames, failed: failed, err: verr}
	rep.values["frames_failed"] = float64(failed)
	return rep
}

// summary is one metric's repetitions reduced for reporting.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// workloadReport is everything measured for one workload.
type workloadReport struct {
	Name      string             `json:"name"`
	Frames    int                `json:"frames"`
	Attempted int                `json:"frames_attempted"`
	Failed    int                `json:"frames_failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// TracedCPUms is the untraced cpu_ms_per_frame the traced pass
	// attributed its busy times against.
	TracedCPUms float64 `json:"traced_cpu_ms_per_frame,omitempty"`

	// What the runs are made from: the workload, its generated spec
	// and the verifier for the harness's seed and scale.
	w    *workloadDef
	spec []byte
	v    *verifier

	samples map[string][]float64
	spans   []span
}

// newReport readies one workload for measurement: generates its spec
// for the harness's seed and scale and computes the verifier.
func (h *harness) newReport(w *workloadDef) (*workloadReport, error) {
	spec, err := w.generate(h.seed, h.scale)
	if err != nil {
		return nil, err
	}
	v, err := newVerifier(w, spec, h.seed, h.scale)
	if err != nil {
		return nil, err
	}
	return &workloadReport{Name: w.Name, w: w, spec: spec, v: v, samples: map[string][]float64{}}, nil
}

// add folds one repetition into the report.
func (wr *workloadReport) add(rep repResult) {
	wr.Frames = rep.frames
	wr.Attempted += rep.frames
	wr.Failed += rep.failed
	if rep.err != nil {
		wr.Errors = append(wr.Errors, rep.err.Error())
	}
	for name, v := range rep.values {
		wr.samples[name] = append(wr.samples[name], v)
	}
}

// finish reduces the samples to summaries. frames_failed is a total,
// not a median: one bad frame in one repetition must show.
func (wr *workloadReport) finish() {
	wr.EndToEnd = map[string]summary{}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = summarize(wr.samples[m.Name])
	}
	ff := wr.EndToEnd["frames_failed"]
	ff.Median, ff.Max = float64(wr.Failed), float64(wr.Failed)
	wr.EndToEnd["frames_failed"] = ff
}

// sampleSetup launches set-up-only children and records their set-up
// times, so setup_s rests on more samples than there are timed runs.
func (h *harness) sampleSetup(wr *workloadReport) {
	for i := 0; i < h.setupSamples; i++ {
		_, setup, err := h.spawn(modeSetupOnly, wr.spec, h.runTimeout())
		if err != nil {
			wr.Errors = append(wr.Errors, err.Error())
			continue
		}
		wr.samples["setup_s"] = append(wr.samples["setup_s"], setup)
	}
}
