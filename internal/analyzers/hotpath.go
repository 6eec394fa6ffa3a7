package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc enforces the data plane's zero-allocation discipline.
// Functions annotated //pslint:hotpath in their doc comment — the
// ApplyBatch column kernels, the wire codecs (EncodeWire /
// DecodeWireInto), the ghost exchange — run once per particle batch per
// frame, and bench/psperf tracks them at 0–1 allocs/op. Inside
// such a function the analyzer flags the allocation shapes that have
// historically crept in:
//
//   - fmt.Sprintf / Sprint / Sprintln (always allocate; fmt.Errorf is
//     exempt — error construction is the cold failure path);
//   - x = append(x, ...) inside a loop when x is a local slice declared
//     without capacity (per-iteration growth reallocations);
//   - function literals that capture enclosing variables (the closure
//     and its captures escape to the heap);
//   - interface boxing: passing or converting a concrete non-pointer
//     value to an interface parameter (the value is heap-boxed).
//
// A finding whose allocation is deliberate (e.g. a once-per-exchange
// closure required by a store's iteration API) is silenced with
// //pslint:alloc-ok <reason> on or above the flagged line.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "flag allocating constructs (fmt formatting, un-capped append growth, " +
		"escaping closures, interface boxing) in //pslint:hotpath functions",
	Run: runHotpathAlloc,
}

// fmtAllocFuncs are the fmt calls flagged in hot paths. fmt.Errorf is
// deliberately absent: error construction sits on the cold failure
// path of a codec and only allocates when the input is already bad.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
}

func runHotpathAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd, "hotpath") {
				continue
			}
			checkHotpathFunc(pass, fd)
		}
	}
	return nil
}

func checkHotpathFunc(pass *Pass, fd *ast.FuncDecl) {
	localInits := localSliceInits(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotpathCall(pass, n)
		case *ast.FuncLit:
			checkClosureCapture(pass, fd, n)
			return false // captures inside nested literals charge to the literal
		case *ast.ForStmt:
			checkAppendGrowth(pass, n.Body, localInits)
		case *ast.RangeStmt:
			checkAppendGrowth(pass, n.Body, localInits)
		}
		return true
	})
}

// checkHotpathCall flags fmt formatting calls and interface boxing of
// concrete arguments.
func checkHotpathCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn != nil && funcPkgPath(fn) == "fmt" {
		if fmtAllocFuncs[fn.Name()] && !pass.suppressed(call.Pos(), "alloc-ok") {
			pass.Reportf(call.Pos(),
				"hotpathalloc: fmt.%s allocates; hot-path code must format outside the kernel",
				fn.Name())
		}
		// Skip the boxing check for all fmt calls: the flagged ones
		// would double-report, and fmt.Errorf's boxing sits on the cold
		// failure path.
		return
	}
	// Interface conversion: T(x) where T is an interface and x is not.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if boxes(pass.TypesInfo.TypeOf(call.Args[0]), tv.Type) &&
			!pass.suppressed(call.Pos(), "alloc-ok") {
			pass.Reportf(call.Pos(),
				"hotpathalloc: conversion to %s boxes the value on the heap", tv.Type.String())
		}
		return
	}
	// Arguments assigned to interface parameters box their values.
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt != nil && boxes(pass.TypesInfo.TypeOf(arg), pt) &&
			!pass.suppressed(arg.Pos(), "alloc-ok") {
			pass.Reportf(arg.Pos(),
				"hotpathalloc: passing %s as %s boxes the value on the heap",
				pass.TypesInfo.TypeOf(arg).String(), pt.String())
		}
	}
}

// paramType returns the type the i-th argument is assigned to,
// unwrapping the variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// boxes reports whether assigning a value of type from to a variable of
// type to heap-boxes it: to is an interface, from is a concrete
// non-pointer, non-interface type. Pointers and nil are exempt — they
// fit in the interface word without copying the value.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature:
		return false
	}
	if basic, ok := from.Underlying().(*types.Basic); ok &&
		basic.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// checkClosureCapture flags function literals that reference variables
// declared outside the literal but inside the hot-path function: the
// captured variables (and the closure itself) escape to the heap.
func checkClosureCapture(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	captured := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the hot function but outside the literal.
		if v.Pos() >= fd.Pos() && v.Pos() <= fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			captured[v] = true
		}
		return true
	})
	if len(captured) > 0 && !pass.suppressed(lit.Pos(), "alloc-ok") {
		pass.Reportf(lit.Pos(),
			"hotpathalloc: closure captures %d enclosing variable(s); the capture escapes to the heap",
			len(captured))
	}
}

// localSliceInits maps each slice variable declared in the function to
// whether its initializer reserves capacity (make with an explicit cap,
// or a make whose single length is itself the final size).
func localSliceInits(pass *Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	capped := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) && len(n.Rhs) != 1 {
					continue
				}
				v, ok := pass.TypesInfo.Defs[id].(*types.Var)
				if !ok || !isSlice(v.Type()) {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					capped[v] = reservesCapacity(pass, n.Rhs[i])
				} else {
					capped[v] = false
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || !isSlice(v.Type()) {
						continue
					}
					if i < len(vs.Values) {
						capped[v] = reservesCapacity(pass, vs.Values[i])
					} else {
						capped[v] = false
					}
				}
			}
		}
		return true
	})
	return capped
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// reservesCapacity reports whether the slice initializer pre-sizes its
// backing array: make with a cap argument, or make with a non-zero
// length (filled by index, not append).
func reservesCapacity(pass *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin || b.Name() != "make" {
		return false
	}
	if len(call.Args) >= 3 {
		return true
	}
	// make([]T, n): pre-sized unless the length is literally 0.
	if len(call.Args) == 2 {
		if lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
			return false
		}
		return true
	}
	return false
}

// checkAppendGrowth flags x = append(x, ...) inside the loop body when
// x is a function-local slice declared without reserved capacity: each
// iteration may reallocate and copy the backing array.
func checkAppendGrowth(pass *Pass, body *ast.BlockStmt, localInits map[*types.Var]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin || b.Name() != "append" {
			return true
		}
		lhs, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		var v *types.Var
		if asg.Tok == token.DEFINE {
			v, _ = pass.TypesInfo.Defs[lhs].(*types.Var)
		} else {
			v, _ = pass.TypesInfo.Uses[lhs].(*types.Var)
		}
		if v == nil {
			return true
		}
		capped, isLocal := localInits[v]
		if isLocal && !capped && !pass.suppressed(asg.Pos(), "alloc-ok") {
			pass.Reportf(asg.Pos(),
				"hotpathalloc: append grows %s inside a loop without reserved capacity; "+
					"make it with an explicit cap", lhs.Name)
		}
		return true
	})
}
