// Command pslint is the engine's static-analysis multichecker: it runs
// the three pslint analyzers (determinism, bufownership,
// resourcelifetime — see internal/analyzers and the "Static invariants"
// section of DESIGN.md) over every package of the build, driven by the
// Go toolchain:
//
//	go build -o bin/pslint ./cmd/pslint
//	go vet -vettool=bin/pslint ./...
//
// which is what `make lint` does. pslint speaks the vet tool protocol —
// the same contract golang.org/x/tools/go/analysis/unitchecker
// implements — reimplemented here on the standard library so the repo
// stays dependency-free:
//
//   - `pslint -V=full` prints a content-hashed version line the build
//     cache keys vet results on;
//   - `pslint -flags` prints the JSON list of tool flags (none);
//   - `pslint <dir>/vet.cfg` analyzes one package: the cfg names the
//     package's files and the export data of its dependencies, the tool
//     parses and type-checks, runs the suite, prints findings as
//     file:line:col lines and exits 2 when any were found.
//
// Dependencies are visited by `go vet` in fact-gathering mode
// (VetxOnly); the pslint suite uses no cross-package facts, so those
// invocations write an empty facts file and exit immediately — only
// the packages named on the vet command line are analyzed.
//
// Output modes: the default text mode prints unsuppressed findings as
// "file:line:col: analyzer: message" and exits 2 when any exist. JSON
// mode — `pslint -json <vet.cfg>`, or PSLINT_JSON=1 in the environment
// for `go vet` runs (vet consumes a -json flag of its own, so the env
// var is the only way through the driver) — emits every finding,
// including suppressed ones, as one JSON object per line for CI diff
// annotation. The exit status counts unsuppressed findings only in
// both modes.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"pscluster/internal/analyzers"
)

// vetConfig is the subset of the vet tool protocol's per-package JSON
// config pslint consumes (cmd/go writes more fields; unknown ones are
// ignored by encoding/json).
type vetConfig struct {
	ID                        string            // package ID, e.g. "pscluster/internal/core [pscluster/internal/core.test]"
	Compiler                  string            // "gc"
	Dir                       string            // package directory
	ImportPath                string            // canonical import path
	GoVersion                 string            // language version for types.Config
	GoFiles                   []string          // absolute paths of the package's Go files
	ImportMap                 map[string]string // source import path -> canonical path
	PackageFile               map[string]string // canonical path -> export data file
	VetxOnly                  bool              // fact-gathering visit of a dependency
	VetxOutput                string            // facts output file the driver expects
	SucceedOnTypecheckFailure bool              // cgo etc.: exit 0 on type errors
}

func main() {
	os.Exit(run())
}

func run() int {
	versionFlag := flag.String("V", "", "print version (-V=full, for the build cache)")
	flagsFlag := flag.Bool("flags", false, "print the tool's flag list as JSON")
	jsonFlag := flag.Bool("json", false, "emit findings as JSON lines (also: PSLINT_JSON=1)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: go vet -vettool=pslint [packages]  (or: pslint [-json] <vet.cfg>)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *versionFlag != "" {
		return printVersion(*versionFlag)
	}
	if *flagsFlag {
		// No driver-forwarded flags: `go vet -json` means something
		// else to cmd/go, so JSON mode rides the environment instead.
		fmt.Println("[]")
		return 0
	}
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
		return 1
	}
	jsonMode := *jsonFlag || os.Getenv("PSLINT_JSON") != ""
	return checkPackage(args[0], jsonMode)
}

// printVersion implements the -V=full handshake: cmd/go keys its vet
// result cache on this line, so it embeds a hash of the executable —
// rebuilding pslint invalidates prior results.
func printVersion(mode string) int {
	if mode != "full" {
		fmt.Fprintf(os.Stderr, "pslint: unsupported flag value -V=%s\n", mode)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		return 1
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, h.Sum(nil))
	return 0
}

// checkPackage analyzes the one package described by the cfg file.
func checkPackage(cfgPath string, jsonMode bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pslint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The driver requires the facts file regardless of outcome; pslint
	// keeps no cross-package facts, so it is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Dependency visited only for facts: nothing to do.
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "pslint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	findings := runSuite(fset, files, pkg, info)
	active := 0
	for _, f := range findings {
		if !f.Suppressed {
			active++
		}
		if jsonMode {
			line, err := json.Marshal(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pslint: %v\n", err)
				return 1
			}
			fmt.Fprintln(os.Stderr, string(line))
		} else if !f.Suppressed {
			fmt.Fprintln(os.Stderr, renderText(f))
		}
	}
	if active > 0 {
		return 2
	}
	return 0
}

// typecheck builds the package's types using the gc export data the
// driver listed in PackageFile, resolved through ImportMap (vendoring,
// test variants).
func typecheck(fset *token.FileSet, files []*ast.File, cfg *vetConfig) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	base := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			if canonical, ok := cfg.ImportMap[importPath]; ok {
				importPath = canonical
			}
			return base.Import(importPath)
		}),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(compiler, buildArch()),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// Strip any " [pkg.test]" variant suffix so test builds of the
	// engine packages keep their canonical path for the scope checks.
	path := cfg.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	pkg, err := conf.Check(path, fset, files, info)
	return pkg, info, err
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// buildArch returns the architecture the driver is building for: vet
// inherits the build's GOARCH in the environment, defaulting to the
// host's.
func buildArch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// finding is one rendered diagnostic: the unit of both output modes.
type finding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// renderText formats a finding as the classic vet line.
func renderText(f finding) string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// runSuite applies every analyzer and returns position-sorted findings.
// The package path handed to the analyzers is the import path with any
// " [pkg.test]" variant suffix stripped, so test builds of the engine
// packages stay in scope for the engine-only checks (their _test.go
// files are skipped inside the analyzers).
func runSuite(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []finding {
	var findings []finding
	for _, a := range analyzers.Suite() {
		name := a.Name
		pass := &analyzers.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analyzers.Diagnostic) {
				pos := fset.Position(d.Pos)
				findings = append(findings, finding{
					File:       pos.Filename,
					Line:       pos.Line,
					Col:        pos.Column,
					Analyzer:   name,
					Message:    d.Message,
					Suppressed: d.Suppressed,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			findings = append(findings, finding{Analyzer: name, Message: fmt.Sprintf("analyzer error: %v", err)})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}
