// Command psperf is the repository's benchmark: one end-to-end and
// per-layer measurement of the particle-cluster engine, defined by
// BENCHMARK.json at the repository root and described in
// bench/README.md.
//
// Two ways to run it, from the bench/ directory (it is its own module):
//
//	go run ./psperf [-seed N] [-out DIR] [-reps 5] [-aa] [-smoke]
//	    every workload: untraced repetitions interleaved pass by pass,
//	    every frame verified, then one traced pass per workload; prints
//	    every metric by name with its unit and writes psperf.json and
//	    trace.json (Chrome trace) to -out.
//
//	go run ./psperf -workload NAME -seed N -seconds S -trace 0|1
//	    one workload, as BENCHMARK.json's command runs it: the last line
//	    of standard output is one JSON object with the end-to-end
//	    (-trace 0) or per-layer (-trace 1) metrics.
//
// A child process (-child MODE) executes one run; see child.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	child := flag.String("child", "", "internal: run one child in this mode, spec on stdin")
	procs := flag.Int("procs", 0, "GOMAXPROCS for the runs (0 = min(nproc, 4))")
	workload := flag.String("workload", "", "run this one workload and print the contract result line")
	seed := flag.Uint64("seed", defaultSeed, "workload seed, added to every System.Seed")
	seconds := flag.Int("seconds", 3*nominalRunSeconds, "with -workload: how long to measure; sets the repetition count")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
	out := flag.String("out", "psperf-out", "directory for psperf.json and trace.json")
	reps := flag.Int("reps", 5, "untraced repetitions per workload")
	aa := flag.Bool("aa", false, "A/A: run two complete end-to-end sets and compare them against the bounds")
	smoke := flag.Bool("smoke", false, "tiny populations and ~10 frames: exercises every path in seconds")
	updateGolden := flag.String("update-golden", "", "write the default seed's checksum digests to this golden.json and exit")
	flag.Parse()

	if *procs <= 0 {
		*procs = min(runtime.NumCPU(), 4)
	}
	if *child != "" {
		childMain(*child, *procs, os.Stdin, os.Stdout)
		return
	}
	runtime.GOMAXPROCS(*procs)
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	h := &harness{exe: exe, procs: *procs, seed: *seed, scale: scaleFull, setupSamples: 24}
	if *smoke {
		h.scale = scaleSmoke
		h.setupSamples = 1
	}

	switch {
	case *updateGolden != "":
		err = h.writeGolden(*updateGolden)
	case *workload != "":
		err = h.contractRun(*workload, *seconds, *trace)
	case *aa:
		err = h.runAA(*reps, *out)
	default:
		err = h.runFull(*reps, *out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psperf:", err)
	os.Exit(1)
}

// contractResult is the one JSON object the contract's command prints
// as the last line of its standard output.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun measures one workload the way BENCHMARK.json's command
// is specified: about `seconds` of timed runs, then the result line.
func (h *harness) contractRun(name string, seconds, trace int) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	wr, err := h.newReport(w)
	if err != nil {
		return err
	}
	result := contractResult{Metrics: map[string]contractMetric{}}
	if trace == 0 {
		// Frame counts are fixed, so the run length sets how many
		// whole repetitions are measured, never how long one lasts.
		reps := max(1, int(math.Round(float64(seconds)/nominalRunSeconds)))
		for i := 0; i < reps; i++ {
			wr.add(h.runRep(wr))
		}
		h.sampleSetup(wr)
		wr.finish()
		for _, m := range endToEnd {
			if m.Contract {
				result.Metrics[m.Name] = contractMetric{wr.EndToEnd[m.Name].Median, m.Unit}
			}
		}
	} else {
		h.tracedPass(wr)
		for _, m := range perLayer {
			result.Metrics[m.Name] = contractMetric{wr.PerLayer[m.Name], m.Unit}
		}
	}
	for _, e := range wr.Errors {
		fmt.Fprintln(os.Stderr, "psperf:", e)
	}
	result.Attempted, result.Failed = max(1, wr.Attempted), wr.Failed
	result.Correct = wr.Failed == 0 && len(wr.Errors) == 0 && wr.Attempted > 0
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runSet measures every workload end to end: reps repetitions each,
// interleaved pass by pass (all workloads, then all again) so slow
// drift of the machine spreads over every workload alike.
func (h *harness) runSet(reps int) ([]*workloadReport, error) {
	reports := make([]*workloadReport, len(workloads))
	for i := range workloads {
		wr, err := h.newReport(&workloads[i])
		if err != nil {
			return nil, err
		}
		reports[i] = wr
	}
	for pass := 0; pass < reps; pass++ {
		for _, wr := range reports {
			fmt.Fprintf(os.Stderr, "pass %d/%d  %s\n", pass+1, reps, wr.Name)
			wr.add(h.runRep(wr))
		}
	}
	for _, wr := range reports {
		h.sampleSetup(wr)
		wr.finish()
	}
	return reports, nil
}

// document is the machine-readable output of a full run.
type document struct {
	Env       environment       `json:"env"`
	Reps      int               `json:"repetitions"`
	StealPct  float64           `json:"steal_pct"`
	Note      string            `json:"note"`
	Workloads []*workloadReport `json:"workloads"`
}

// percentileNote says why the report has medians and no percentiles.
func percentileNote(reps int) string {
	return fmt.Sprintf("timings are medians of n repetitions with min and max; with n=%d no percentile has ten samples beyond it, so none is reported", reps)
}

func (h *harness) runFull(reps int, outDir string) error {
	env := readEnvironment(h)
	env.warn()
	var reports []*workloadReport
	var err error
	steal := stealPct(func() {
		if reports, err = h.runSet(reps); err != nil {
			return
		}
		for _, wr := range reports {
			fmt.Fprintf(os.Stderr, "traced pass  %s\n", wr.Name)
			h.tracedPass(wr)
		}
	})
	if err != nil {
		return err
	}
	warnSteal("the run", steal)
	doc := document{Env: env, Reps: reps, StealPct: steal, Note: percentileNote(reps), Workloads: reports}
	printReport(os.Stdout, &doc)
	if err := writeOutputs(outDir, &doc); err != nil {
		return err
	}
	failed := 0
	for _, wr := range reports {
		failed += wr.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d frames failed verification", failed)
	}
	return nil
}

func writeOutputs(outDir string, doc *document) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "psperf.json"), doc); err != nil {
		return err
	}
	runs := map[string][]span{}
	var order []string
	for _, wr := range doc.Workloads {
		if len(wr.spans) > 0 {
			runs[wr.Name] = wr.spans
			order = append(order, wr.Name)
		}
	}
	f, err := os.Create(filepath.Join(outDir, "trace.json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, runs, order); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeGolden runs every workload once at the default seed and writes
// the digests. The TCP workload's series must equal the same scenario's
// series on the virtual fabric — the fabric bit-identity bar — or no
// file is written.
func (h *harness) writeGolden(path string) error {
	g := goldenFile{Seed: defaultSeed, Digests: map[string]string{}}
	for i := range workloads {
		w := &workloads[i]
		spec, err := w.generate(defaultSeed, scaleFull)
		if err != nil {
			return err
		}
		res, _, err := h.spawn(modePlain, spec, h.runTimeout())
		if err != nil {
			return err
		}
		g.Digests[w.Name] = digest(res.Checksums)
		if w.Engine == engineTCP {
			virt, _, err := h.spawn(modeVirtual, spec, h.runTimeout())
			if err != nil {
				return err
			}
			if d := digest(virt.Checksums); d != g.Digests[w.Name] {
				return fmt.Errorf("%s: TCP digest %s differs from virtual-fabric digest %s", w.Name, g.Digests[w.Name], d)
			}
		}
		fmt.Fprintf(os.Stderr, "%s  %s\n", w.Name, g.Digests[w.Name])
	}
	return writeJSON(path, g)
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
