package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment records where a run happened, so two result files can be
// told apart before their numbers are compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	Scale      string  `json:"scale"`
}

func readEnvironment(h *harness) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: h.procs, GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: h.seed, Scale: "full",
	}
	if h.scale == scaleSmoke {
		env.Scale = "smoke"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(fields[0], 64) // a malformed field reads as 0: no warning, nothing else depends on it
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// cpuJiffies returns the machine-wide stolen and total CPU time from
// /proc/stat's first line (zeros where it cannot be read). Stolen time
// is what the hypervisor gave to other guests while this one wanted to
// run: the direct measure of a shared host's interference.
func cpuJiffies() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64) // a malformed field counts as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct runs fn and returns the share of the machine's CPU time
// that was stolen while it ran.
func stealPct(fn func()) float64 {
	s0, t0 := cpuJiffies()
	fn()
	s1, t1 := cpuJiffies()
	if t1 <= t0 {
		return 0
	}
	return 100 * (s1 - s0) / (t1 - t0)
}

// stealWarnPct is the stolen-time share above which timings say more
// about the host's other guests than about the code.
const stealWarnPct = 5.0

func warnSteal(what string, pct float64) {
	if pct >= stealWarnPct {
		fmt.Fprintf(os.Stderr, "psperf: WARNING: %.1f%% of CPU time was stolen by the hypervisor during %s; its timings are not worth comparing\n", pct, what)
	}
}

// warn flags a machine that is already busy: timings taken on it are
// not worth comparing.
func (e environment) warn() {
	if e.LoadAvg1 >= float64(e.NProc) {
		fmt.Fprintf(os.Stderr, "psperf: WARNING: 1-min load average %.2f >= nproc %d; timings will be noisy\n", e.LoadAvg1, e.NProc)
	}
}

func printEnv(w io.Writer, e environment) {
	fmt.Fprintf(w, "psperf  commit %s  seed %d  scale %s\n", e.Commit, e.Seed, e.Scale)
	fmt.Fprintf(w, "        %s  nproc %d  GOMAXPROCS %d  %s  loadavg(1m) %.2f\n\n",
		e.CPUModel, e.NProc, e.GOMAXPROCS, e.GoVersion, e.LoadAvg1)
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, doc *document) {
	printEnv(w, doc.Env)
	fmt.Fprintf(w, "stolen CPU time during the run: %.1f%%\n\n", doc.StealPct)
	fmt.Fprintf(w, "End-to-end (untraced, %d repetitions per workload; %s)\n\n", doc.Reps, percentileNote(doc.Reps))
	for _, wr := range doc.Workloads {
		fmt.Fprintf(w, "%s  (%d frames per run, %d of %d frames failed)\n", wr.Name, wr.Frames, wr.Failed, wr.Attempted)
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-24s %14.6g %-10s min %-12.6g max %-12.6g n=%d\n", m.Name, s.Median, m.Unit, s.Min, s.Max, s.N)
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  ERROR %s\n", e)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "Per-layer (one traced pass per workload; 0 = does not apply)\n\n")
	for _, wr := range doc.Workloads {
		if wr.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wr.Name)
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-42s %14.6g %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
		}
		fmt.Fprintln(w)
	}
}

// aaRow is one (metric, workload) comparison of an A/A run.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Agrees   bool    `json:"agrees"`
}

// setupFloorS is the absolute slack setup_s gets on top of its
// relative bound: a few-millisecond quantity moves by more than a
// quarter when one page fault lands differently.
const setupFloorS = 0.005

// agrees applies a metric's bound to one pair of medians.
func agrees(m metricDef, a, b float64) (float64, bool) {
	if m.Exact {
		return b - a, a == b
	}
	if a == 0 {
		return 0, b == 0
	}
	rel := math.Abs(b-a) / math.Abs(a)
	ok := rel <= m.Bound
	if m.Name == "setup_s" && math.Abs(b-a) <= setupFloorS {
		ok = true
	}
	return rel, ok
}

// runAA runs two complete end-to-end sets on the same binary and seed
// and holds them to the benchmark's own bounds.
func (h *harness) runAA(reps int, outDir string) error {
	env := readEnvironment(h)
	env.warn()
	printEnv(os.Stdout, env)
	var setA, setB []*workloadReport
	var err error
	stealA := stealPct(func() { setA, err = h.runSet(reps) })
	if err != nil {
		return err
	}
	stealB := stealPct(func() { setB, err = h.runSet(reps) })
	if err != nil {
		return err
	}
	warnSteal("set A", stealA)
	warnSteal("set B", stealB)
	var rows []aaRow
	bad := 0
	fmt.Printf("A/A: two sets of %d repetitions, same binary, same seed; stolen CPU time %.1f%% (A) and %.1f%% (B)\n\n", reps, stealA, stealB)
	fmt.Printf("%-18s %-22s %14s %14s %10s\n", "workload", "metric", "median A", "median B", "rel diff")
	for i := range workloads {
		for _, m := range endToEnd {
			a, b := setA[i].EndToEnd[m.Name].Median, setB[i].EndToEnd[m.Name].Median
			rel, ok := agrees(m, a, b)
			rows = append(rows, aaRow{workloads[i].Name, m.Name, a, b, rel, ok})
			mark := ""
			if !ok {
				mark = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %9.2f%%%s\n", workloads[i].Name, m.Name, a, b, rel*100, mark)
		}
	}
	doc := struct {
		Env      environment `json:"env"`
		Reps     int         `json:"repetitions"`
		StealPct [2]float64  `json:"steal_pct"`
		Rows     []aaRow     `json:"rows"`
	}{env, reps, [2]float64{stealA, stealB}, rows}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(outDir+"/aa.json", doc); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d (metric, workload) pairs disagree beyond their bounds", bad)
	}
	fmt.Println("\nA/A: every pair agrees within its bound")
	return nil
}
