package analyzers

// bufownership is the flow-sensitive enforcement of the pooled-buffer
// contract (DESIGN §15): whoever acquires a wire buffer — bufpool.Get,
// (*Batch).EncodeWire, or any function whose doc carries
// //pslint:pooled — owns exactly one disposal obligation, met
// by a bufpool.Put, a Message.Release, or an ownership transfer (a
// fabric Send*/channel send, a return, or any escape into a call or a
// data structure, after which the new holder is responsible). Tracked
// transport.Message values (Endpoint/Fabric Recv results and channel
// receives) carry the weaker obligation: never Release twice, never
// touch .Payload after Release — the leak check is deliberately not
// applied to them because many engine paths hand the payload onward.
//
// Reported hazard classes, all path-sensitive ("on some path" via the
// union join in dataflow.go):
//
//   - leak-to-GC: a return reachable with the buffer still owned
//   - double-Release (including a branchy maybe-Release before an
//     unconditional one, and a deferred Release after an explicit one)
//   - use-after-Release, and use after a send consumed ownership
//   - shared/broadcast escape: the same owned buffer sent twice —
//     the loop-broadcast shape the TCP fabric's sender-side
//     reclamation makes unsafe
//   - a pooled result discarded outright at statement level
//
// Suppress with //pslint:own-ok <reason> on the finding's line or the
// acquisition line. Known model gap: `defer bufpool.Put(buf)` pins the
// slice value at registration, while the tracker applies it to the
// variable at exit; re-acquiring into the same variable after such a
// defer is mismodeled (rare — the tree never does it).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
)

var BufOwnership = &Analyzer{
	Name: "bufownership",
	Doc: "flow-sensitive pooled-buffer ownership: every acquired wire buffer is Released " +
		"or sent exactly once on every path, and never touched afterwards",
	Run: runBufOwnership,
}

type bufKind uint8

const (
	kindBuf bufKind = 1 + iota // pooled []byte: full obligation
	kindMsg                    // transport.Message: no-double-Release only
)

// ownedVar is the tracker's per-variable bookkeeping.
type ownedVar struct {
	kind   bufKind
	origin token.Pos
	name   string
}

func runBufOwnership(pass *Pass) error {
	pooled := directiveFuncs(pass, "pooled")
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, fb := range funcBodies(f) {
			t := &bufTracker{
				pass:   pass,
				pooled: pooled,
				vars:   map[types.Object]ownedVar{},
				seen:   map[string]bool{},
			}
			runFlow(buildCFG(pass.TypesInfo, fb.body, fb.body.Rbrace), t)
		}
	}
	return nil
}

// directiveFuncs collects the package's own functions whose doc comment
// carries the named pslint directive (e.g. //pslint:pooled). Directives
// are invisible across package boundaries (export data drops comments),
// so well-known cross-package origins are hardcoded instead.
func directiveFuncs(pass *Pass, name string) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hasDirective(fd, name) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = true
			}
		}
	}
	return out
}

type bufTracker struct {
	pass   *Pass
	pooled map[*types.Func]bool
	vars   map[types.Object]ownedVar
	seen   map[string]bool
}

// flag reports once per (pos, message); the final replay visits defers
// once per exit path, so dedup is load-bearing, not cosmetic.
func (t *bufTracker) flag(pos, origin token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if t.seen[key] {
		return
	}
	t.seen[key] = true
	var alt []token.Pos
	if origin.IsValid() {
		alt = []token.Pos{origin}
	}
	t.pass.FlagAt(pos, alt, "own-ok", "%s", msg)
}

// identObj resolves an identifier to its object whether it defines
// (`:=`) or uses (`=`) the variable.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// rootIdent unwraps parens and slicings: buf, (buf), buf[:n] all name
// the same underlying pooled array.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			id, _ := e.(*ast.Ident)
			return id
		}
	}
}

// isMessageType reports whether typ is transport.Message (by name, so
// both the real module path and the bare testdata path qualify).
func isMessageType(typ types.Type) bool {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, ok := typ.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Message" && path.Base(n.Obj().Pkg().Path()) == "transport"
}

// originOf classifies an acquisition call.
func (t *bufTracker) originOf(call *ast.CallExpr) (bufKind, bool) {
	fn := calleeFunc(t.pass.TypesInfo, call)
	if fn == nil {
		return 0, false
	}
	if t.pooled[fn] {
		return kindBuf, true
	}
	base := path.Base(funcPkgPath(fn))
	switch {
	case base == "bufpool" && fn.Name() == "Get":
		return kindBuf, true
	case fn.Name() == "EncodeWire" && recvTypeName(fn) == "Batch":
		return kindBuf, true
	case fn.Name() == "Recv":
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Results().Len() == 1 && isMessageType(sig.Results().At(0).Type()) {
			return kindMsg, true
		}
	}
	return 0, false
}

// isPoolPut matches bufpool.Put(x).
func (t *bufTracker) isPoolPut(call *ast.CallExpr) bool {
	fn := calleeFunc(t.pass.TypesInfo, call)
	return fn != nil && fn.Name() == "Put" && path.Base(funcPkgPath(fn)) == "bufpool"
}

// isMsgRelease matches m.Release() for transport.Message receivers.
func (t *bufTracker) isMsgRelease(call *ast.CallExpr) bool {
	fn := calleeFunc(t.pass.TypesInfo, call)
	return fn != nil && fn.Name() == "Release" && recvTypeName(fn) == "Message"
}

// sendPayloadArg returns the payload argument index of a fabric send
// method call, or -1. Matched loosely by name + arity: every fabric
// implementation (and the testdata fakes) spell these the same way.
func (t *bufTracker) sendPayloadArg(call *ast.CallExpr) int {
	fn := calleeFunc(t.pass.TypesInfo, call)
	if fn == nil {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return -1
	}
	switch fn.Name() {
	case "Send", "SendScaled", "SendSized":
		if len(call.Args) >= 3 {
			return 2
		}
	}
	return -1
}

// --- effects -----------------------------------------------------------

func (t *bufTracker) release(st flowState, obj types.Object, pos token.Pos, final bool) {
	v, ok := t.vars[obj]
	if !ok {
		return
	}
	if _, tracked := st[obj]; !tracked {
		return
	}
	if final {
		if st[obj]&stReleased != 0 {
			t.flag(pos, v.origin, "%s may already be Released on a path reaching this Release (double-Release)", v.name)
		} else if st[obj]&stSent != 0 {
			t.flag(pos, v.origin, "%s is Released after a send transferred its ownership", v.name)
		}
	}
	st[obj] = stReleased
}

func (t *bufTracker) transfer(st flowState, obj types.Object, pos token.Pos, final bool) {
	v, ok := t.vars[obj]
	if !ok {
		return
	}
	if _, tracked := st[obj]; !tracked {
		return
	}
	if final {
		if st[obj]&stSent != 0 {
			t.flag(pos, v.origin, "%s may be sent more than once — each send consumes ownership of the pooled buffer; encode per destination", v.name)
		} else if st[obj]&stReleased != 0 {
			t.flag(pos, v.origin, "%s is sent after being Released", v.name)
		}
	}
	st[obj] = stSent
}

// use checks a read of a tracked variable against its state.
func (t *bufTracker) use(st flowState, id *ast.Ident, final bool) {
	obj := t.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	v, ok := t.vars[obj]
	if !ok {
		return
	}
	s, tracked := st[obj]
	if !tracked || !final {
		return
	}
	if s&stReleased != 0 {
		t.flag(id.Pos(), v.origin, "%s may be used after Release", v.name)
	} else if v.kind == kindBuf && s&stSent != 0 {
		t.flag(id.Pos(), v.origin, "%s may be used after a send transferred its buffer", v.name)
	}
}

// escape stops tracking obj: ownership moved somewhere the
// intraprocedural analysis cannot see (alias, field store, callee,
// closure capture, return). Conservative by design — report only when
// certain.
func (t *bufTracker) escape(st flowState, obj types.Object) {
	delete(st, obj)
}

// --- node walking ------------------------------------------------------

func (t *bufTracker) node(st flowState, n ast.Node, final bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.assign(st, n, final)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					t.valueSpec(st, vs, final)
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if kind, isOrigin := t.originOf(call); isOrigin && kind == kindBuf && final {
				t.flag(call.Pos(), token.NoPos, "pooled buffer returned here is discarded — it can never be Released")
			}
		}
		t.expr(st, n.X, final)
	case *ast.SendStmt:
		t.expr(st, n.Chan, final)
		if id := rootIdent(n.Value); id != nil {
			if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
				if _, tracked := t.vars[obj]; tracked {
					t.transfer(st, obj, n.Arrow, final)
					return
				}
			}
		}
		t.expr(st, n.Value, final)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if id := rootIdent(r); id != nil {
				if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
					if _, tracked := t.vars[obj]; tracked {
						t.use(st, id, final) // returning a released buffer is still a bug
						t.escape(st, obj)    // ownership moves to the caller
						continue
					}
				}
			}
			t.expr(st, r, final)
		}
	case *ast.DeferStmt:
		// Registration: argument values are read now, effects apply at
		// exit (see deferred). Non-release deferred calls are opaque —
		// treat them as escapes immediately.
		if t.releaseTarget(n.Call) == nil {
			t.call(st, n.Call, final)
		} else {
			for _, a := range n.Call.Args {
				t.expr(st, a, final)
			}
		}
	case *ast.GoStmt:
		t.call(st, n.Call, final)
	case *ast.RangeStmt:
		t.expr(st, n.X, final)
		for _, kv := range []ast.Expr{n.Key, n.Value} {
			if id, ok := kv.(*ast.Ident); ok && id.Name != "_" {
				if obj := identObj(t.pass.TypesInfo, id); obj != nil {
					t.escape(st, obj) // loop var rebinds every iteration
				}
			}
		}
	case *ast.IncDecStmt:
		t.expr(st, n.X, final)
	case ast.Expr:
		t.expr(st, n, final)
	case ast.Stmt:
		// Remaining simple statements (LabeledStmt leftovers, etc.):
		// walk any expressions they contain.
		ast.Inspect(n, func(c ast.Node) bool {
			if e, ok := c.(ast.Expr); ok {
				t.expr(st, e, final)
				return false
			}
			return true
		})
	}
}

// valueSpec handles `var x = expr` declarations like assignments.
func (t *bufTracker) valueSpec(st flowState, vs *ast.ValueSpec, final bool) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			if t.tryAcquire(st, name, vs.Values[i], final) {
				continue
			}
			t.expr(st, vs.Values[i], final)
		}
	}
}

// tryAcquire handles `lhs := <origin>` when rhs is an acquisition,
// returning true if it was.
func (t *bufTracker) tryAcquire(st flowState, lhs ast.Expr, rhs ast.Expr, final bool) bool {
	kind, isOrigin := bufKind(0), false
	var originPos token.Pos
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		kind, isOrigin = t.originOf(r)
		if isOrigin {
			for _, a := range r.Args {
				t.expr(st, a, final)
			}
			originPos = r.Pos()
		}
	case *ast.UnaryExpr:
		if r.Op == token.ARROW {
			if typ := t.pass.TypesInfo.TypeOf(r); typ != nil && isMessageType(typ) {
				kind, isOrigin = kindMsg, true
				t.expr(st, r.X, final)
				originPos = r.Pos()
			}
		}
	}
	if !isOrigin {
		return false
	}
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return true // acquired straight into a field/blank: untracked
	}
	obj := identObj(t.pass.TypesInfo, id)
	if obj == nil {
		return true
	}
	if prev, tracked := st[obj]; tracked && prev&stOwned != 0 && final {
		if v, known := t.vars[obj]; known && v.kind == kindBuf {
			t.flag(originPos, v.origin, "%s is reacquired while a previous pooled buffer it holds may still be owned (Release before re-Get)", id.Name)
		}
	}
	st[obj] = stOwned
	t.vars[obj] = ownedVar{kind: kind, origin: originPos, name: id.Name}
	return true
}

func (t *bufTracker) assign(st flowState, a *ast.AssignStmt, final bool) {
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Rhs {
			if t.tryAcquire(st, a.Lhs[i], a.Rhs[i], final) {
				continue
			}
			t.expr(st, a.Rhs[i], final)
			t.lhs(st, a.Lhs[i], a.Rhs[i], final)
		}
		return
	}
	// Multi-value call or comma-ok: no buffer origin has that shape.
	for _, r := range a.Rhs {
		t.expr(st, r, final)
	}
	for _, l := range a.Lhs {
		t.lhs(st, l, nil, final)
	}
}

// lhs applies the store side of one assignment pair.
func (t *bufTracker) lhs(st flowState, l ast.Expr, r ast.Expr, final bool) {
	// Storing a tracked buffer anywhere hands ownership off.
	if r != nil {
		if id := rootIdent(r); id != nil {
			if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
				if _, tracked := t.vars[obj]; tracked {
					t.escape(st, obj)
				}
			}
		}
	}
	switch l := l.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj := identObj(t.pass.TypesInfo, l); obj != nil {
			// Overwritten: whatever it held is no longer reachable
			// through this name. (Leak-on-overwrite is reported only
			// for the unambiguous reacquisition case in tryAcquire.)
			t.escape(st, obj)
		}
	default:
		t.expr(st, l, final)
	}
}

// releaseTarget returns the object a call releases (bufpool.Put's
// argument, a Message Release receiver), or nil.
func (t *bufTracker) releaseTarget(call *ast.CallExpr) types.Object {
	if t.isPoolPut(call) && len(call.Args) == 1 {
		if id := rootIdent(call.Args[0]); id != nil {
			return t.pass.TypesInfo.Uses[id]
		}
	}
	if t.isMsgRelease(call) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id := rootIdent(sel.X); id != nil {
				return t.pass.TypesInfo.Uses[id]
			}
		}
	}
	return nil
}

func (t *bufTracker) call(st flowState, call *ast.CallExpr, final bool) {
	if obj := t.releaseTarget(call); obj != nil {
		if _, tracked := t.vars[obj]; tracked {
			t.release(st, obj, call.Pos(), final)
			return
		}
	}
	if i := t.sendPayloadArg(call); i >= 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			t.expr(st, sel.X, final)
		}
		// All arguments evaluate before the send runs: walk the
		// non-payload ones first so `Send(p, tag, buf, len(buf))`
		// never reads as use-after-transfer.
		var payload types.Object
		var payloadPos token.Pos
		for j, a := range call.Args {
			if j == i {
				if id := rootIdent(a); id != nil {
					if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
						if _, tracked := t.vars[obj]; tracked {
							payload, payloadPos = obj, a.Pos()
							continue
						}
					}
				}
			}
			t.expr(st, a, final)
		}
		if payload != nil {
			t.transfer(st, payload, payloadPos, final)
		}
		return
	}
	// len/cap/copy read the buffer without taking ownership; every
	// other builtin with a slice argument (append) may retain it.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := t.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "len", "cap", "copy":
				for _, a := range call.Args {
					t.expr(st, a, final)
				}
				return
			}
		}
	}
	// Ordinary call: tracked arguments escape into the callee.
	t.expr(st, call.Fun, final)
	for _, a := range call.Args {
		if id := rootIdent(a); id != nil {
			if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
				if _, tracked := t.vars[obj]; tracked {
					t.use(st, id, final) // passing a released buffer is a bug
					t.escape(st, obj)
					continue
				}
			}
		}
		t.expr(st, a, final)
	}
}

// expr walks an expression for uses, calls, captures and escapes.
func (t *bufTracker) expr(st flowState, e ast.Expr, final bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			t.call(st, n, final)
			return false
		case *ast.FuncLit:
			t.captureEscape(st, n)
			return false
		case *ast.SelectorExpr:
			// m.Payload after Release is the only field access that
			// matters; other Message fields (From, Corr, ...) survive
			// Release by contract.
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
					if v, tracked := t.vars[obj]; tracked && v.kind == kindMsg {
						if s, in := st[obj]; in && final && n.Sel.Name == "Payload" && s&stReleased != 0 {
							t.flag(n.Pos(), v.origin, "%s.Payload may be read after Release returned the buffer to the pool", v.name)
						}
						return false
					}
				}
			}
			t.expr(st, n.X, final)
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if id := rootIdent(el); id != nil {
					if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
						if _, tracked := t.vars[obj]; tracked {
							t.use(st, id, final)
							t.escape(st, obj)
							continue
						}
					}
				}
				t.expr(st, el, final)
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// Address taken: anything could happen through the
				// pointer — stop tracking idents underneath.
				if id := rootIdent(n.X); id != nil {
					if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
						t.escape(st, obj)
						return false
					}
				}
			}
			return true
		case *ast.Ident:
			t.use(st, n, final)
		}
		return true
	})
}

// captureEscape untracks every variable a closure captures: the
// closure body is analyzed as its own function and may release or keep
// anything it closed over.
func (t *bufTracker) captureEscape(st flowState, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := t.pass.TypesInfo.Uses[id]; obj != nil {
				if _, tracked := t.vars[obj]; tracked {
					t.escape(st, obj)
				}
			}
		}
		return true
	})
}

func (t *bufTracker) refine(st flowState, cond ast.Expr, when bool) {
	obj, nonNilWhen, ok := errRefinement(t.pass.TypesInfo, cond)
	if !ok {
		return
	}
	// `if buf == nil` / `if buf != nil`: the nil branch holds nothing.
	if _, tracked := t.vars[obj]; tracked && nonNilWhen != when {
		delete(st, obj)
	}
}

func (t *bufTracker) deferred(st flowState, d *ast.DeferStmt, final bool) {
	obj := t.releaseTarget(d.Call)
	if obj == nil {
		return
	}
	if _, tracked := t.vars[obj]; tracked {
		t.release(st, obj, d.Pos(), final)
	}
}

func (t *bufTracker) exit(st flowState, pos token.Pos, panicking, final bool) {
	if !final || panicking {
		return
	}
	var leaked []types.Object
	for obj, s := range st {
		if v, ok := t.vars[obj]; ok && v.kind == kindBuf && s&stOwned != 0 {
			leaked = append(leaked, obj)
		}
	}
	sort.Slice(leaked, func(i, j int) bool {
		return t.vars[leaked[i]].origin < t.vars[leaked[j]].origin
	})
	for _, obj := range leaked {
		v := t.vars[obj]
		t.flag(pos, v.origin, "pooled buffer %s may reach this return still owned — Release it or send it on every path (leak to GC)", v.name)
	}
}
