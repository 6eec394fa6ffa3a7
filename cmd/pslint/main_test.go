package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestFindingOutputFormats locks both output renderings of a finding:
// the classic vet text line and the JSON object CI consumes. Every
// field — file, position, analyzer, message, and the suppressed flag —
// must survive the round trip, because downstream diff annotation keys
// on exactly these names.
func TestFindingOutputFormats(t *testing.T) {
	cases := []struct {
		name     string
		f        finding
		wantText string
		wantJSON string
	}{
		{
			name: "active",
			f: finding{
				File: "internal/core/sims.go", Line: 287, Col: 4,
				Analyzer: "bufownership",
				Message:  "payload may be sent more than once",
			},
			wantText: "internal/core/sims.go:287:4: bufownership: payload may be sent more than once",
			wantJSON: `{"file":"internal/core/sims.go","line":287,"col":4,"analyzer":"bufownership","message":"payload may be sent more than once","suppressed":false}`,
		},
		{
			name: "suppressed",
			f: finding{
				File: "internal/transport/net.go", Line: 12, Col: 9,
				Analyzer:   "resourcelifetime",
				Message:    "conn c may reach this return without Close/Abort",
				Suppressed: true,
			},
			wantText: "internal/transport/net.go:12:9: resourcelifetime: conn c may reach this return without Close/Abort",
			wantJSON: `{"file":"internal/transport/net.go","line":12,"col":9,"analyzer":"resourcelifetime","message":"conn c may reach this return without Close/Abort","suppressed":true}`,
		},
		{
			name: "message with quotes",
			f: finding{
				File: "a.go", Line: 1, Col: 1,
				Analyzer: "determinism",
				Message:  `map iteration over "hot" state`,
			},
			wantText: `a.go:1:1: determinism: map iteration over "hot" state`,
			wantJSON: `{"file":"a.go","line":1,"col":1,"analyzer":"determinism","message":"map iteration over \"hot\" state","suppressed":false}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := renderText(tc.f); got != tc.wantText {
				t.Errorf("text:\n got %q\nwant %q", got, tc.wantText)
			}
			raw, err := json.Marshal(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != tc.wantJSON {
				t.Errorf("json:\n got %s\nwant %s", raw, tc.wantJSON)
			}
			var back finding
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if back != tc.f {
				t.Errorf("round trip: got %+v, want %+v", back, tc.f)
			}
		})
	}
}

// wallClockCore is an engine package that deliberately reads the wall
// clock: pslint must refuse it.
const wallClockCore = `package core

import "time"

// Frame deliberately reads the wall clock: pslint must refuse it.
func Frame() float64 {
	return float64(time.Now().UnixNano())
}
`

// vetCore builds pslint, writes src as the internal/core package of a
// throwaway module, and runs the real `go vet -vettool=` pipeline over
// it with env added to the environment — exactly what `make lint` does
// to the tree. It returns vet's combined output and its error.
func vetCore(t *testing.T, src string, env ...string) ([]byte, error) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and vets a module; skipped in -short")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("go tool not found: %v", err)
	}

	tmp := t.TempDir()
	pslint := filepath.Join(tmp, "pslint")
	build := exec.Command(goTool, "build", "-o", pslint, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pslint: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	corePkg := filepath.Join(mod, "internal", "core")
	if err := os.MkdirAll(corePkg, 0o777); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(mod, "go.mod"), "module pscluster\n\ngo 1.22\n")
	writeFile(t, filepath.Join(corePkg, "core.go"), src)

	vet := exec.Command(goTool, "vet", "-vettool="+pslint, "./...")
	vet.Dir = mod
	vet.Env = append(os.Environ(), env...)
	return vet.CombinedOutput()
}

// jsonFindings parses the JSON-mode finding lines of a vet run's output.
func jsonFindings(t *testing.T, out []byte) []finding {
	t.Helper()
	var fs []finding
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("unparseable JSON line %q: %v", line, err)
		}
		fs = append(fs, f)
	}
	return fs
}

// TestVetToolCatchesWallClock is the suite's end-to-end proof: a
// throwaway module whose internal/core package calls time.Now() must
// fail the vet run with the determinism diagnostic — exactly what
// `make lint` would do to a PR that reintroduced a wall-clock read into
// the engine.
func TestVetToolCatchesWallClock(t *testing.T) {
	out, err := vetCore(t, wallClockCore)
	if err == nil {
		t.Fatalf("go vet passed; want the determinism analyzer to fail the build\noutput:\n%s", out)
	}
	if !strings.Contains(string(out), "determinism: time.Now reads the host wall clock") {
		t.Fatalf("vet failed without the expected diagnostic:\n%s", out)
	}
}

// TestVetToolJSONMode drives the same failing module with PSLINT_JSON=1
// in the environment (the only route to JSON output under the vet
// driver, which claims -json for itself) and checks that the finding
// arrives as a parseable JSON line carrying the analyzer name and the
// suppressed flag.
func TestVetToolJSONMode(t *testing.T) {
	out, err := vetCore(t, wallClockCore, "PSLINT_JSON=1")
	if err == nil {
		t.Fatalf("go vet passed; want the determinism analyzer to fail the build\noutput:\n%s", out)
	}
	var got *finding
	for _, f := range jsonFindings(t, out) {
		if f.Analyzer == "determinism" {
			got = &f
		}
	}
	if got == nil {
		t.Fatalf("no determinism finding in JSON output:\n%s", out)
	}
	if got.Suppressed {
		t.Errorf("finding marked suppressed: %+v", got)
	}
	if !strings.HasSuffix(got.File, "core.go") || got.Line == 0 || got.Col == 0 {
		t.Errorf("finding position incomplete: %+v", got)
	}
	if !strings.Contains(got.Message, "wall clock") {
		t.Errorf("finding message %q does not name the wall clock", got.Message)
	}
}

// TestVetToolJSONModeKeepsSuppressed: JSON mode emits every finding,
// including one silenced by a reasoned directive, which prints
// "suppressed":true and leaves the exit status clean.
func TestVetToolJSONModeKeepsSuppressed(t *testing.T) {
	out, err := vetCore(t, `package core

// Total sums the values.
func Total(m map[string]int) int {
	n := 0
	for _, v := range m { //pslint:nondeterministic-ok integer addition is order-independent
		n += v
	}
	return n
}
`, "PSLINT_JSON=1")
	if err != nil {
		t.Fatalf("go vet failed on a suppressed-only package: %v\n%s", err, out)
	}
	fs := jsonFindings(t, out)
	if len(fs) != 1 || fs[0].Analyzer != "determinism" || !fs[0].Suppressed ||
		!strings.Contains(fs[0].Message, "map iteration") {
		t.Fatalf("want one suppressed determinism map-iteration finding, got %+v\noutput:\n%s", fs, out)
	}
	if !strings.Contains(string(out), `"suppressed":true`) {
		t.Errorf("JSON output does not carry \"suppressed\":true:\n%s", out)
	}
}

// TestVetToolCleanPackage is the negative control: a compliant engine
// package passes the full vet pipeline with exit status 0.
func TestVetToolCleanPackage(t *testing.T) {
	out, err := vetCore(t, `package core

// Step advances pure state: nothing for the suite to flag.
func Step(t, dt float64) float64 { return t + dt }
`)
	if err != nil {
		t.Fatalf("go vet failed on a clean package: %v\n%s", err, out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
