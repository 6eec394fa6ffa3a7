// Command psanim runs a particle-system animation on the simulated
// cluster and reports timing — optionally writing the rendered frames
// as PPM images.
//
// Usage:
//
//	psanim [-scenario snow|fountain|explosion|collapse] [-procs N] [-nodes N]
//	       [-net myrinet|fast-ethernet] [-lb static|dynamic]
//	       [-space finite|infinite] [-decomp slab|grid|voronoi] [-frames N]
//	       [-out DIR] [-seq] [-config scenario.json] [-dump scenario.json]
//	       [-trace trace.json] [-metrics out.prom] [-timeline]
//	       [-serve :9090]
//
// Scenarios can also be described declaratively: -dump writes the
// selected built-in scenario as JSON, -config runs one from a file (see
// examples/scenarios/).
//
// Observability: -trace writes a Chrome trace-event JSON of every
// Figure-2 phase span (open it in Perfetto or chrome://tracing),
// -metrics writes run counters in the Prometheus text format, and
// -timeline prints the per-calculator compute/comm/idle breakdown.
// Recording never perturbs the model: a traced run produces exactly the
// frames and virtual times of an untraced one.
//
// Live telemetry: -serve :9090 starts the always-on telemetry plane
// (see internal/obs/live) alongside the run — /metrics, /healthz,
// /status, /trace and /debug/pprof — and keeps serving after the run
// finishes until interrupted. Serving is bit-neutral too.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/experiments"
	"pscluster/internal/obs"
	"pscluster/internal/obs/live"
	scenariojson "pscluster/internal/scenario"
)

func main() {
	scenario := flag.String("scenario", "snow",
		"workload: snow, fountain, explosion or collapse")
	procs := flag.Int("procs", 4, "calculator processes")
	nodes := flag.Int("nodes", 4, "E800 nodes in the simulated cluster")
	netName := flag.String("net", "myrinet", "network: myrinet or fast-ethernet")
	lbName := flag.String("lb", "dynamic", "load balancing: static or dynamic")
	spaceName := flag.String("space", "finite", "simulated space: finite or infinite")
	decompName := flag.String("decomp", "slab",
		"space decomposition: slab (paper's 1-D intervals), grid (2-D moving cuts) or voronoi (drifting sites)")
	frames := flag.Int("frames", 0, "frames to simulate (0 = scenario default)")
	out := flag.String("out", "", "directory for PPM frames (enables rasterization)")
	seq := flag.Bool("seq", false, "also run the sequential baseline and report speed-up")
	config := flag.String("config", "", "JSON scenario file (overrides -scenario)")
	dump := flag.String("dump", "", "write the selected scenario as JSON to this file and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	metricsOut := flag.String("metrics", "", "write run metrics in Prometheus text exposition format")
	timeline := flag.Bool("timeline", false, "print the per-calculator compute/comm/idle timeline")
	serve := flag.String("serve", "",
		"serve live telemetry on this address while running (/metrics /healthz /status /trace /debug/pprof); requires an explicit -frames, keeps serving after the run until interrupted")
	checksums := flag.Bool("checksums", false,
		"print per-frame content checksums, diffable against a psnode -checksums image generator")
	flag.Parse()

	if err := validateFlags(flagValues{
		serve: *serve, frames: *frames, metricsOut: *metricsOut, traceOut: *traceOut,
		lb: *lbName, space: *spaceName, net: *netName, decomp: *decompName,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	lb, mode := lbModes[*lbName], spaceModes[*spaceName]
	net, decomp := networks[*netName], decomps[*decompName]

	cfg := experiments.PaperScale
	if *frames > 0 {
		cfg.Frames = *frames
	}
	var scn core.Scenario
	if *config != "" {
		data, err := os.ReadFile(*config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
			os.Exit(1)
		}
		scn, err = scenariojson.Decode(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
			os.Exit(1)
		}
		if *frames > 0 {
			scn.Frames = *frames
		}
	} else {
		switch *scenario {
		case "snow":
			scn = experiments.Snow(cfg, mode, lb)
		case "fountain":
			scn = experiments.Fountain(cfg, mode, lb)
		case "explosion":
			scn = experiments.ClusteredExplosion(cfg, mode, lb)
		case "collapse":
			scn = experiments.OrbitalCollapse(cfg, mode, lb)
		default:
			fmt.Fprintf(os.Stderr, "psanim: unknown scenario %q\n", *scenario)
			os.Exit(1)
		}
	}
	if *decompName != "slab" {
		// Only override the scenario (or config file) when asked: slab
		// is both the flag default and the zero value.
		scn.Decomp = decomp
	}
	if *dump != "" {
		data, err := scenariojson.Encode(scn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*dump, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("scenario written to %s\n", *dump)
		return
	}
	if *out != "" {
		scn.Render.Rasterize = true
		scn.Render.OutputDir = *out
		scn.Render.Width, scn.Render.Height = 480, 360
	}

	cl := cluster.New(net, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: *nodes})
	fmt.Printf("scenario %s: %d systems, %d frames, %s space, %s, %s decomposition\n",
		scn.Name, len(scn.Systems), scn.Frames, scn.Mode, scn.LB, scn.Decomp)
	fmt.Printf("cluster: %s, %d calculator processes\n", cl, *procs)

	observing := *traceOut != "" || *metricsOut != "" || *timeline
	var par *core.Result
	var prof *obs.Profile
	var srv *live.Server
	var err error
	switch {
	case *serve != "":
		plane := live.NewPlane(live.Options{})
		srv, err = live.Serve(*serve, plane)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
			os.Exit(1)
		}
		// The smoke script greps this exact line for the bound address.
		fmt.Printf("telemetry serving on http://%s\n", srv.Addr)
		par, prof, err = core.RunParallelServed(scn, cl, *procs, plane)
	case observing:
		par, prof, err = core.RunParallelProfiled(scn, cl, *procs)
	default:
		par, err = core.RunParallel(scn, cl, *procs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("parallel virtual time: %.2fs (%.3fs/frame)\n",
		par.Time, par.Time/float64(par.Frames))
	if n := len(par.FrameTimes); n > 1 {
		first := par.FrameTimes[0]
		steady := (par.FrameTimes[n-1] - first) / float64(n-1)
		// A degenerate run can deliver every remaining frame at one
		// virtual instant; skip the fps clause instead of printing +Inf.
		if steady > 0 {
			fmt.Printf("frame cadence: first at %.3fs, then every %.3fs (%.1f fps virtual)\n",
				first, steady, 1/steady)
		} else {
			fmt.Printf("frame cadence: first at %.3fs, remaining frames delivered immediately\n", first)
		}
	}
	if *checksums {
		// One line per frame, in the exact format psnode's image
		// generator prints — the net-smoke script diffs the two outputs.
		for i, c := range par.FrameChecksums {
			fmt.Printf("frame %d checksum %016x\n", i, c)
		}
	}
	fmt.Printf("exchanged particles: %d (%.1f KB total)\n",
		par.ExchangedParticles, float64(par.ExchangedBytes)/1024)
	if scn.LB == core.DynamicLB {
		fmt.Printf("load balancing: %d rounds moved %d particles\n", par.LBRounds, par.LBMoved)
	}
	if *out != "" {
		fmt.Printf("frames written to %s\n", *out)
	}
	if prof != nil {
		if err := writeObservability(prof, *traceOut, *metricsOut, *timeline); err != nil {
			fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
			os.Exit(1)
		}
	}

	if *seq {
		seqRes, err := core.RunSequential(scn, cluster.TypeB, cluster.GCC)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psanim: sequential baseline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("sequential virtual time: %.2fs — speed-up %.2f\n",
			seqRes.Time, par.Speedup(seqRes))
	}

	if srv != nil {
		// Keep the telemetry plane up for post-run inspection: scrape
		// /metrics, pull /trace into Perfetto, poke /debug/pprof. Ctrl-C
		// (or SIGTERM) shuts down cleanly.
		fmt.Println("run complete; telemetry still serving — interrupt to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		if err := srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "psanim: %v\n", err)
			os.Exit(1)
		}
	}
}

// The enum flags' accepted values, each mapped to what it selects.
var (
	lbModes    = map[string]core.LBMode{"static": core.StaticLB, "dynamic": core.DynamicLB}
	spaceModes = map[string]core.SpaceMode{"finite": core.FiniteSpace, "infinite": core.InfiniteSpace}
	networks   = map[string]cluster.Network{"myrinet": cluster.Myrinet, "fast-ethernet": cluster.FastEthernet}
	decomps    = map[string]core.DecompMode{
		"slab": core.DecompSlab, "grid": core.DecompGrid, "voronoi": core.DecompVoronoi,
	}
)

// flagValues holds the flags validateFlags checks.
type flagValues struct {
	serve                string
	frames               int
	metricsOut, traceOut string
	lb, space, net       string
	decomp               string
}

// validateFlags rejects flag values that would misbehave silently: a
// served run with no explicit frame horizon, -metrics and -trace
// clobbering each other's output file, and an enum flag value outside
// its choices (which would otherwise fall back to a default).
func validateFlags(f flagValues) error {
	if f.serve != "" && f.frames <= 0 {
		return fmt.Errorf("-serve requires an explicit -frames count (got %d): a served run must state its horizon", f.frames)
	}
	if f.metricsOut != "" && f.metricsOut == f.traceOut {
		return fmt.Errorf("-metrics and -trace both write to %q: give them distinct paths", f.metricsOut)
	}
	return errors.Join(
		checkEnum("lb", f.lb, lbModes),
		checkEnum("space", f.space, spaceModes),
		checkEnum("net", f.net, networks),
		checkEnum("decomp", f.decomp, decomps),
	)
}

// checkEnum rejects a value the flag's choice table does not list.
func checkEnum[T any](name, value string, choices map[string]T) error {
	if _, ok := choices[value]; !ok {
		return fmt.Errorf("-%s: unknown value %q", name, value)
	}
	return nil
}

// writeObservability emits the requested views of the run profile.
func writeObservability(prof *obs.Profile, traceOut, metricsOut string, timeline bool) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := prof.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("phase trace written to %s (%d spans; open in Perfetto)\n",
			traceOut, len(prof.Spans))
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := prof.Registry.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	if timeline {
		return prof.WriteTimeline(os.Stdout, 8)
	}
	return nil
}
