// Command psbench regenerates every table and text-reported result of
// the paper's evaluation section, printing measured values next to the
// published ones. See DESIGN.md for the experiment index.
//
// Usage:
//
//	psbench [-table all|1|2|3|X1|X2|X3|X4|X5|X6|A1|F1|F2] [-scale small|paper]
//	        [-format text|csv|json]
//	psbench -list
//	psbench -checkprom metrics.prom   (or - for stdin)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/domain"
	"pscluster/internal/experiments"
	"pscluster/internal/geom"
	"pscluster/internal/obs"
	"pscluster/internal/stats"
)

// experimentIndex mirrors DESIGN.md §3: every table and figure psbench
// can regenerate, with the paper artifact each one reproduces and the
// workload behind it.
var experimentIndex = []struct{ id, artifact, workload string }{
	{"1", "Table 1 — snow speedups, Myrinet + GCC, 8×B nodes, {4..8,16} procs × {IS,FS}×{SLB,DLB}",
		"snow, 8 systems, vertical motion; sequential baseline 1×B/GCC"},
	{"2", "Table 2 — snow on heterogeneous A/B/C mixes, Fast-Ethernet + ICC, DLB+FS",
		"8 rows of node/process mixes; baseline 1×C/ICC"},
	{"3", "Table 3 — fountain speedups, Myrinet + GCC, 8×B nodes (same grid as Table 1)",
		"fountain, 8 emitters spread through space, horizontal+vertical motion"},
	{"X1", "§5.1 text — snow, Fast-Ethernet + ICC, 8×B/16P: speedup 2.56 (DLB), 2.65 (FS-SLB)",
		"as Table 1 but Fast-Ethernet; baseline 1×C/ICC"},
	{"X2", "§5.1 text — snow, 4×A+4×B Myrinet: 2.76 (8P), 2.93 (16P)",
		"mixed homogeneous-network cluster"},
	{"X3", "§5.2 text — fountain, 8×B+8×A Myrinet, 16P: 4.28",
		"fountain scale-out"},
	{"X4", "§5.2 text — fountain, Fast-Ethernet best (2×B+2×C, DLB+FS): 1.26",
		"slow-network crossover"},
	{"X5", "§5.1/§5.2 text — per-frame exchange volume: snow ≈560/proc ≈613 KB; fountain ≈4000 ≈4375 KB",
		"exchange accounting"},
	{"X6", "§5.3 text — time reduction: snow 84 % (Myrinet), 68 % (Fast-Ethernet); fountain 66 % (Myrinet)",
		"best-config summary"},
	{"A1", "DESIGN.md §5 ablations (not in the paper)",
		"design-choice comparisons"},
	{"F1", "Figure 1 — equal-size initial domains",
		"prints the [-10, 10] split across 4 calculators"},
	{"F2", "Figure 2 / Algorithm 1 — per-frame phase sequence",
		"event trace of one frame from a live parallel run"},
}

func printIndex() {
	fmt.Println("psbench experiment index (DESIGN.md §3); run with -table <ID>:")
	for _, e := range experimentIndex {
		fmt.Printf("  %-3s  %s\n       %s\n", e.id, e.artifact, e.workload)
	}
}

func main() {
	table := flag.String("table", "all", "table to regenerate: all, 1, 2, 3, X1..X6, A1, F1, F2")
	scale := flag.String("scale", "paper", "experiment scale: small or paper")
	format := flag.String("format", "text", "output format for tables: text, csv, or json")
	list := flag.Bool("list", false, "print the table/figure index and exit")
	checkProm := flag.String("checkprom", "",
		"validate a Prometheus text exposition file (or - for stdin) against the format grammar and exit")
	flag.Parse()

	if err := validateFlags(*scale, *format); err != nil {
		fmt.Fprintf(os.Stderr, "psbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *list {
		printIndex()
		return
	}
	if *checkProm != "" {
		if err := checkPromFile(*checkProm); err != nil {
			fmt.Fprintf(os.Stderr, "psbench: checkprom: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid Prometheus exposition\n", *checkProm)
		return
	}

	if err := writeTables(os.Stdout, *table, scales[*scale], *format); err != nil {
		fmt.Fprintf(os.Stderr, "psbench: %v\n", err)
		os.Exit(1)
	}
}

// writeTables writes what -table selects to w in the given format: the
// paper's tables and text results, then Figures 1 and 2.
func writeTables(w io.Writer, table string, cfg experiments.Config, format string) error {
	type job struct {
		id  string
		run func(experiments.Config) (*stats.Table, error)
	}
	jobs := []job{
		{"1", experiments.Table1},
		{"2", experiments.Table2},
		{"3", experiments.Table3},
		{"X1", experiments.TextX1},
		{"X2", experiments.TextX2},
		{"X3", experiments.TextX3},
		{"X4", experiments.TextX4},
		{"X5", experiments.TextX5},
		{"X6", experiments.TextX6},
		{"A1", experiments.Ablations},
	}

	want := strings.ToUpper(table)
	ran := false
	for _, j := range jobs {
		if want != "ALL" && want != strings.ToUpper(j.id) {
			continue
		}
		ran = true
		t, err := j.run(cfg)
		if err != nil {
			return fmt.Errorf("table %s: %w", j.id, err)
		}
		switch format {
		case "csv":
			err = t.WriteCSV(w)
		case "json":
			err = t.WriteJSON(w)
		default:
			err = t.Format(w)
			fmt.Fprintln(w)
		}
		if err != nil {
			return err
		}
	}
	if want == "ALL" || want == "F1" {
		ran = true
		if err := printFigure1(w); err != nil {
			return fmt.Errorf("figure 1: %w", err)
		}
	}
	if want == "ALL" || want == "F2" {
		ran = true
		if err := printFigure2(w, cfg, format); err != nil {
			return fmt.Errorf("figure 2: %w", err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown table %q", table)
	}
	return nil
}

// scales maps -scale to the experiment configuration it selects;
// formats lists -format's values.
var (
	scales  = map[string]experiments.Config{"small": experiments.Small, "paper": experiments.PaperScale}
	formats = map[string]bool{"text": true, "csv": true, "json": true}
)

// validateFlags rejects an unknown -scale or -format, which would
// otherwise silently start a paper-scale run or print text.
func validateFlags(scale, format string) error {
	if _, ok := scales[scale]; !ok {
		return fmt.Errorf("-scale: unknown value %q", scale)
	}
	if !formats[format] {
		return fmt.Errorf("-format: unknown value %q", format)
	}
	return nil
}

// printFigure1 reproduces the paper's Figure 1: the initial equal-size
// division of the space [-10, 10] into four domains.
func printFigure1(w io.Writer) error {
	fmt.Fprintln(w, "F1 — Figure 1: initial equal-size domains, space [-10, 10], 4 calculators")
	tab, err := domain.NewEqual(geom.AxisX, -10, 10, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %v\n", tab)
	for i := 0; i < tab.N(); i++ {
		lo, hi := tab.Bounds(i)
		fmt.Fprintf(w, "  P%d: [%g, %g)\n", i+1, lo, hi)
	}
	fmt.Fprintln(w)
	return nil
}

// nonFigure2Phases are the profile's spans that are not phases of the
// paper's Figure 2: the synchronous-frame wait, the image generator's
// gather and the manager-free balancing round (DESIGN.md §8).
var nonFigure2Phases = map[string]bool{
	"frame-barrier": true, "render-collect": true, "decentralized-lb": true,
}

// printFigure2 reproduces the paper's Figure 2: the phase sequence of
// one frame of one system, traced from a live parallel run. The events
// are the run profile's spans in each rank's program order, less the
// phases that are not Figure 2's (nonFigure2Phases), each stamped with
// its completion time. In JSON format the document embeds the run's
// full metrics snapshot, so the machine-readable output carries the
// observability data alongside the phase events.
func printFigure2(w io.Writer, cfg experiments.Config, format string) error {
	scn := experiments.Snow(cfg, core.FiniteSpace, core.DynamicLB)
	scn.Frames = 1
	cl := cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	_, prof, err := core.RunParallelProfiled(scn, cl, 4)
	if err != nil {
		return err
	}
	spans := slices.DeleteFunc(prof.SpansByRank(), func(s obs.Span) bool { return nonFigure2Phases[s.Phase] })
	if format == "json" {
		type jsonEvent struct {
			Frame  int     `json:"frame"`
			System int     `json:"system"`
			Proc   int     `json:"proc"`
			Role   string  `json:"role"`
			Phase  string  `json:"phase"`
			T      float64 `json:"t"`
		}
		doc := struct {
			ID      string       `json:"id"`
			Title   string       `json:"title"`
			Events  []jsonEvent  `json:"events"`
			Metrics obs.Snapshot `json:"metrics"`
		}{
			ID:      "F2",
			Title:   "Figure 2: simulation phases of one frame (traced from a live run)",
			Metrics: prof.Registry.Snapshot(),
		}
		for _, s := range spans {
			doc.Events = append(doc.Events, jsonEvent{
				Frame: s.Frame, System: s.System, Proc: s.Rank,
				Role: prof.Timeline(s.Rank).Role, Phase: s.Phase, T: s.End,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Fprintln(w, "F2 — Figure 2: simulation phases of one frame (traced from a live run)")
	for _, s := range spans {
		if s.System > 0 { // one system is enough to show the structure
			continue
		}
		fmt.Fprintf(w, "  t=%9.6fs  %-16s %s\n", s.End, prof.Timeline(s.Rank).Role, s.Phase)
	}
	fmt.Fprintln(w)
	return nil
}

// checkPromFile validates a Prometheus text exposition file ("-" reads
// stdin) with the obs grammar checker — the CI telemetry smoke pipes a
// live /metrics scrape through this.
func checkPromFile(path string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	return obs.ValidateExposition(r)
}
