package analyzers

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the model's bit-reproducibility invariant in the
// five engine packages (internal/core, internal/particle,
// internal/actions, internal/loadbalance, internal/domain): a run is a
// pure function of the scenario, so engine code must not read host wall
// time (time.Now/Since/Until), must not draw from the unseeded
// process-global math/rand source, and must not iterate a map in
// unordered key order — Go randomizes map iteration per run, so
// anything fed from such a loop (donation orders, trace events, wire
// payloads) would differ between bit-identical inputs. A map range is
// allowed when it only collects keys for sorting, or when the site
// carries //pslint:nondeterministic-ok with a reason.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global rand and unordered map iteration " +
		"in the engine packages",
	Run: runDeterminism,
}

// wallClockFuncs are the time-package functions that read the host
// clock. time.Sleep is included: engine code waits on virtual time
// fuses, never on the host scheduler.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
}

// seededRandCtors are the math/rand (and v2) package-level functions
// that construct explicitly-seeded generators — the one sanctioned way
// to use rand in the engine.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !isEnginePackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch funcPkgPath(fn) {
	case "time":
		if wallClockFuncs[fn.Name()] && recvTypeName(fn) == "" {
			pass.Flag(call.Pos(), "nondeterministic-ok",
				"determinism: time.%s reads the host wall clock; engine code must use the virtual Clock",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand operate on an explicitly-constructed,
		// explicitly-seeded source and are fine; package-level calls
		// (other than the source constructors) draw from the shared
		// global source, whose sequence is not a function of the
		// scenario.
		if recvTypeName(fn) != "" || seededRandCtors[fn.Name()] {
			return
		}
		pass.Flag(call.Pos(), "nondeterministic-ok",
			"determinism: %s.%s draws from the process-global rand source; use a seeded *rand.Rand",
			funcPkgPath(fn), fn.Name())
	}
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isKeyCollectLoop(pass, rng) {
		return
	}
	pass.Flag(rng.Pos(), "nondeterministic-ok",
		"determinism: map iteration order is randomized per run; sort the keys first "+
			"or annotate //pslint:nondeterministic-ok <reason>")
}

// isKeyCollectLoop recognizes the one blessed map-range shape — the
// collect-then-sort idiom:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
//
// a single append of the key into a slice, with no value variable. Any
// other body must prove its order-independence via annotation.
func isKeyCollectLoop(pass *Pass, rng *ast.RangeStmt) bool {
	if rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && pass.TypesInfo.Uses[arg] == pass.TypesInfo.Defs[key]
}
