package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the harness re-execute the test binary for its child
// processes, exactly as it re-executes psperf itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestGenerateIsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, sc := range []scale{scaleFull, scaleSmoke} {
			a, err := w.generate(7, sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.generate(7, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: same seed gave different scenario JSON", w.Name)
			}
			c, err := w.generate(8, sc)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s: seeds 7 and 8 gave identical scenario JSON", w.Name)
			}
			if _, err := decodeSpec(a); err != nil {
				t.Errorf("%s: generated spec does not decode: %v", w.Name, err)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is not a valid unit", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: direction %q", name, better)
		}
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if !m.Exact && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []layerDef `json:"per_layer"`
}

func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds != 3*nominalRunSeconds {
		t.Errorf("run_seconds = %d, want three nominal runs = %d", bj.RunSeconds, 3*nominalRunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, bj.Workloads[i].Name, w.Name)
		}
	}
	var contract []metricDef
	for _, m := range endToEnd {
		if m.Contract {
			contract = append(contract, m)
		}
	}
	if len(bj.EndToEnd) != len(contract) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(contract))
	}
	hasSetup := false
	for i, m := range contract {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
		if got.Unit == "" || got.Better == "" || got.Bound <= 0 {
			t.Errorf("%s: unit, direction and bound must all be set", got.Name)
		}
		hasSetup = hasSetup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json must list setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Error("per_layer of BENCHMARK.json and the harness differ")
	}
}

func (l *layerDef) UnmarshalJSON(data []byte) error {
	var v struct{ Name, Unit, Better string }
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	*l = layerDef{v.Name, v.Unit, v.Better}
	return nil
}

// TestSmoke drives all six workloads through both passes at the smoke
// scale, so no path of the harness can rot unnoticed.
func TestSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{exe: exe, procs: 2, seed: 3, scale: scaleSmoke, setupSamples: 1}
	reports, err := h.runSet(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range reports {
		h.tracedPass(wr)
		if wr.Failed != 0 || len(wr.Errors) != 0 {
			t.Errorf("%s: %d of %d frames failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Errors)
		}
		if wr.Attempted == 0 {
			t.Errorf("%s: no frames attempted", wr.Name)
		}
		for _, m := range endToEnd {
			if s, ok := wr.EndToEnd[m.Name]; !ok || s.N == 0 {
				t.Errorf("%s: end-to-end metric %s missing", wr.Name, m.Name)
			} else if m.Contract && !(s.Median > 0) {
				t.Errorf("%s: %s = %g; a contract metric is never 0", wr.Name, m.Name, s.Median)
			}
		}
		for _, m := range perLayer {
			if _, ok := wr.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, m.Name)
			}
		}
		for _, name := range []string{"actions.kernel_ns_per_particle", "particle.encode_ns_per_particle", "render.splat_ns_per_particle", "scenario.decode_us"} {
			if !(wr.PerLayer[name] > 0) {
				t.Errorf("%s: %s = %g, want > 0", wr.Name, name, wr.PerLayer[name])
			}
		}
		if len(wr.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", wr.Name)
		}
	}
	var buf bytes.Buffer
	doc := document{Reps: 1, Workloads: reports}
	printReport(&buf, &doc)
	for _, m := range append(names(endToEnd), layerNames()...) {
		if !bytes.Contains(buf.Bytes(), []byte(m)) {
			t.Errorf("report does not print %s", m)
		}
	}
	if err := writeOutputs(t.TempDir(), &doc); err != nil {
		t.Error(err)
	}
}

func names(ms []metricDef) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func layerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.Name)
	}
	return out
}

func TestVerifierCountsFailedFrames(t *testing.T) {
	w := findWorkload("snow_seq")
	spec, err := w.generate(5, scaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVerifier(w, spec, 5, scaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	good := append([]uint64(nil), v.prefix...)
	good = append(good, 1, 2) // frames past the prefix are not the prefix check's business
	if failed, err := v.check(w, good); failed != 0 || err != nil {
		t.Errorf("matching series: %d failed, %v", failed, err)
	}
	bad := append([]uint64(nil), good...)
	bad[3] ^= 1
	if failed, err := v.check(w, bad); failed != len(bad)-3 || err == nil {
		t.Errorf("series diverging at frame 3: %d failed (%v), want %d", failed, err, len(bad)-3)
	}
	if failed, _ := v.check(w, good[:2]); failed == 0 {
		t.Error("a truncated series passed")
	}
	v.golden = digest(good)
	if failed, _ := v.check(w, good); failed != 0 {
		t.Error("series matching its golden digest failed")
	}
	v.golden = digest(bad)
	if failed, _ := v.check(w, good); failed != len(good) {
		t.Errorf("golden mismatch failed %d frames, want all %d", failed, len(good))
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != defaultSeed {
		t.Errorf("golden seed %d, default seed %d", g.Seed, defaultSeed)
	}
	for _, w := range workloads {
		if len(g.Digests[w.Name]) != 64 {
			t.Errorf("%s: no golden digest", w.Name)
		}
	}
}

func TestAgrees(t *testing.T) {
	timing := metricDef{Name: "frames_per_s", Bound: 0.10}
	exact := metricDef{Name: "virtual_s", Exact: true}
	setup := metricDef{Name: "setup_s", Bound: 0.25}
	cases := []struct {
		m    metricDef
		a, b float64
		want bool
	}{
		{timing, 100, 109, true},
		{timing, 100, 89, false},
		{exact, 1.5, 1.5, true},
		{exact, 1.5, 1.5000001, false},
		{setup, 0.003, 0.006, true}, // +100 % but only 3 ms: inside the absolute floor
		{setup, 0.100, 0.140, false},
	}
	for _, c := range cases {
		if _, ok := agrees(c.m, c.a, c.b); ok != c.want {
			t.Errorf("agrees(%s, %g, %g) = %v, want %v", c.m.Name, c.a, c.b, ok, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "a.x", StartNs: 15, EndNs: 25, Parent: 1},
		{Name: "b", StartNs: 50, EndNs: 90, Parent: 0},
	}
	want := []int64{30, 20, 10, 40}
	if got := selfNs(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
