// Package analyzers is the engine's static-analysis suite: three
// checkers for the invariants the paper's model depends on that no
// run-time test catches — no wall-clock reads, global rand draws or
// unordered map iteration in the engine packages, and, through the
// flow-sensitive engine in cfg.go/dataflow.go, the pooled-buffer
// ownership contract and the teardown discipline of fabric resources.
// The suite is run over the whole tree by cmd/pslint through
// `go vet -vettool=` (see `make lint`), and each analyzer carries its
// own testdata tree exercised by the analyzertest harness.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// an Analyzer with a Run(*Pass) hook reporting position-tagged
// diagnostics — but is built on the standard library alone
// (go/ast, go/types, go/token), so the repo stays dependency-free.
//
// Deliberate violations are suppressed in source with pslint
// directives, each of which must carry a reason:
//
//	//pslint:nondeterministic-ok <reason>   (determinism)
//	//pslint:own-ok <reason>                (bufownership)
//	//pslint:lifetime-ok <reason>           (resourcelifetime)
//
// Functions returning a pooled wire buffer declare it with
// //pslint:pooled in their doc comment, and functions acquiring a
// closeable resource declare it with //pslint:acquires.
//
// Suppressed findings are not discarded: they are emitted with
// Diagnostic.Suppressed set, so drivers can either hide them (the vet
// text protocol) or surface them for audit (pslint -json).
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check: a name (the diagnostic prefix and the
// documentation key), a one-paragraph doc string stating the invariant
// it encodes, and the Run hook applied once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's parsed and type-checked state through an
// analyzer run. Report appends a diagnostic; the driver (cmd/pslint or
// the analyzertest harness) decides how diagnostics are rendered.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// directives caches the per-file pslint directive index.
	directives map[*ast.File]*directiveIndex
}

// Diagnostic is one finding at one source position. Suppressed marks a
// finding covered by a reasoned //pslint:<directive> annotation; such
// findings are hidden by the vet text protocol but kept for -json
// output and the analyzertest `// want-suppressed` clauses.
type Diagnostic struct {
	Pos        token.Pos
	Message    string
	Suppressed bool
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Flag reports a finding at pos that the named directive can suppress.
// A directive on the finding's line (or the line above) marks the
// diagnostic Suppressed instead of dropping it; a directive without a
// reason additionally earns a "needs a reason" finding, so silent
// opt-outs are impossible.
func (p *Pass) Flag(pos token.Pos, directive, format string, args ...any) {
	p.FlagAt(pos, nil, directive, format, args...)
}

// FlagAt is Flag with extra positions whose lines may also carry the
// suppression directive. Flow analyzers use it so a leak reported at a
// `return` can be waived either there or at the acquisition site.
func (p *Pass) FlagAt(pos token.Pos, alt []token.Pos, directive, format string, args ...any) {
	sup := false
	for _, at := range append([]token.Pos{pos}, alt...) {
		d, ok := p.suppression(at, directive)
		if !ok {
			continue
		}
		sup = true
		if d.reason == "" {
			p.Reportf(pos, "//pslint:%s needs a reason: state why this site may break the invariant", directive)
		}
		break
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Suppressed: sup})
}

// Suite returns every analyzer of the pslint suite, in the order they
// are documented in DESIGN.md.
func Suite() []*Analyzer {
	return []*Analyzer{
		Determinism,
		BufOwnership,
		ResourceLifetime,
	}
}

// enginePackages are the packages whose code drives the simulation
// model itself; the determinism invariant applies only here. Matched by
// the path tail so both the real module paths (pscluster/internal/core)
// and the bare testdata paths (core) qualify.
var enginePackages = map[string]bool{
	"core":        true,
	"particle":    true,
	"actions":     true,
	"loadbalance": true,
	"domain":      true,
}

// isEnginePackage reports whether path names one of the engine
// packages. Vet runs analyzers over test variants too, whose IDs carry
// a " [pkg.test]" suffix; that suffix never reaches here because the
// driver strips it, but a trailing ".test" or "_test" package is
// rejected so synthesized test-main packages stay out of scope.
func isEnginePackage(path string) bool {
	if strings.HasSuffix(path, ".test") || strings.HasSuffix(path, "_test") {
		return false
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if !enginePackages[base] {
		return false
	}
	return path == base || strings.HasPrefix(path, "pscluster/internal/")
}

// isTestFile reports whether the file behind pos is a _test.go file.
// The suite checks production code only: tests freely use maps, wall
// time and closures, and flagging them would bury the real findings.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f == nil || strings.HasSuffix(f.Name(), "_test.go")
}

// calleeFunc resolves a call expression to the function or method
// object it invokes, or nil for calls through function values,
// conversions and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgPath returns the import path of the package a function object
// belongs to ("" for builtins and error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvTypeName returns the bare type name of a method's receiver
// ("Clock" for func (c *Clock) AdvanceWork), or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
