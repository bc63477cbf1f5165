package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared intra-procedural ownership/CFG walker behind the
// leak-shaped analyzers (mbufleak, arenalease, stagepair). Each of those
// invariants has the same skeleton — an acquisition creates an obligation
// bound to a variable, control flow is walked path-sensitively, and any
// path to a return on which the obligation was neither released nor
// handed off is a finding — so the skeleton lives here once and the
// analyzers supply an ownPolicy describing what acquires, what finalizes
// and how to word the diagnostic.
//
// The analysis is deliberately generous about what counts as a transfer
// (any use of the tracked variable as a call argument, return value,
// assignment source, composite-literal element or channel send releases
// the obligation); what it flags is the unambiguous case — an acquisition
// with a path to a return that never hands the resource to anyone.

// acqSpec classifies one acquiring call.
type acqSpec struct {
	// kind names the acquisition in diagnostics (Alloc, AllocBulk, lease).
	kind string
	// argBind binds the obligation to the call's first argument instead of
	// the assignment's first result (mbuf.Pool.AllocBulk(dst) style).
	argBind bool
}

// ownPolicy parameterizes the tracker for one analyzer.
type ownPolicy struct {
	// analyzer is the owning analyzer's name, used on findings.
	analyzer string
	// acquireCall classifies a call expression as an acquisition.
	acquireCall func(info *types.Info, call *ast.CallExpr) (acqSpec, bool)
	// stampAssign, optional, inspects every assignment for non-call
	// acquisitions and alias registrations (stagepair's span stamps).
	stampAssign func(t *ownTracker, s *ast.AssignStmt)
	// finalizers are method names whose call discharges the obligation on
	// the receiver's root variable (resolved through aliases).
	finalizers map[string]bool
	// trackBound lets obligations attach to the function's own receiver,
	// parameters and named results. mbufleak wants this (AllocBulk(dst)
	// on a parameter fills buffers the function owns); the
	// object-lifecycle analyzers do not (a parameter's lease belongs to
	// the caller).
	trackBound bool
	// message renders one finding. exitLine is the offending return's line.
	message func(fn string, o *obligation, exitLine int) string
}

// obligation is one pending acquisition inside a function.
type obligation struct {
	v        *types.Var
	errVar   types.Object // error result of the acquiring call, if bound
	kind     string
	pos      token.Pos
	released bool
	reported bool
	suppress int // >0 while inside a branch guarded by errVar
}

// checkOwnership runs the policy over every function declaration and
// literal of the package.
func checkOwnership(pkg *Package, p *ownPolicy) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					t := newOwnTracker(pkg, p)
					t.bindParams(n.Recv, n.Type)
					t.checkFunc(n.Name.Name, n.Body)
					out = append(out, t.out...)
				}
			case *ast.FuncLit:
				// Each literal is analyzed as its own function; the
				// statement walk never descends into literal bodies for
				// acquisition purposes.
				t := newOwnTracker(pkg, p)
				t.bindParams(nil, n.Type)
				t.checkFunc("func literal", n.Body)
				out = append(out, t.out...)
			}
			return true
		})
	}
	return out
}

// ownTracker runs the per-function analysis.
type ownTracker struct {
	p   *ownPolicy
	pkg *Package
	out []Finding
	fn  string
	// obls maps each tracked root variable to its obligation.
	obls map[*types.Var]*obligation
	// aliases maps a local pointer variable to the root variable whose
	// state it aliases (sp := &ib.span makes sp an alias of ib), so a
	// transfer or finalize through either name discharges the obligation.
	aliases map[*types.Var]*types.Var
	// bound holds the function's receiver, parameters and named results:
	// obligations never attach to them (their owner is the caller).
	bound map[*types.Var]bool
}

func newOwnTracker(pkg *Package, p *ownPolicy) *ownTracker {
	return &ownTracker{
		p:       p,
		pkg:     pkg,
		obls:    make(map[*types.Var]*obligation),
		aliases: make(map[*types.Var]*types.Var),
		bound:   make(map[*types.Var]bool),
	}
}

func (t *ownTracker) info() *types.Info { return t.pkg.Info }

// bindParams records the receiver, parameters and named results as bound.
func (t *ownTracker) bindParams(recv *ast.FieldList, ft *ast.FuncType) {
	lists := []*ast.FieldList{recv, ft.Params, ft.Results}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for _, f := range l.List {
			for _, name := range f.Names {
				if v, ok := objOf(t.info(), name).(*types.Var); ok {
					t.bound[v] = true
				}
			}
		}
	}
}

func (t *ownTracker) checkFunc(name string, body *ast.BlockStmt) {
	t.fn = name
	t.walkStmts(body.List)
	// Implicit return at the end of the body.
	if n := len(body.List); n == 0 || !isTerminal(body.List[n-1]) {
		t.reportPending(body.Rbrace)
	}
}

// isTerminal reports whether a statement already ends the flow (so the
// implicit end-of-body return is unreachable or was already checked).
func isTerminal(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.ForStmt:
		return s.Cond == nil // for {} without break analysis: treat as non-returning
	}
	return false
}

// reportPending emits one finding per live, unsuppressed obligation.
func (t *ownTracker) reportPending(at token.Pos) {
	for _, o := range t.obls {
		if o.released || o.reported || o.suppress > 0 {
			continue
		}
		o.reported = true
		exit := t.pkg.Position(at)
		t.out = append(t.out, finding(t.p.analyzer, t.pkg.Position(o.pos),
			"%s", t.p.message(t.fn, o, exit.Line)))
	}
}

// track registers a new obligation for v unless v is bound to the caller.
func (t *ownTracker) track(v *types.Var, errVar types.Object, kind string, pos token.Pos) {
	if v == nil || (t.bound[v] && !t.p.trackBound) {
		return
	}
	t.obls[v] = &obligation{v: v, errVar: errVar, kind: kind, pos: pos}
}

// resolveAlias follows the alias chain from v to its root.
func (t *ownTracker) resolveAlias(v *types.Var) *types.Var {
	for i := 0; i < 8; i++ { // alias chains are short; bound cycles
		next, ok := t.aliases[v]
		if !ok {
			return v
		}
		v = next
	}
	return v
}

// release discharges the obligation on v (and on its alias root).
func (t *ownTracker) release(v *types.Var) {
	if o, ok := t.obls[v]; ok {
		o.released = true
	}
	if root := t.resolveAlias(v); root != v {
		if o, ok := t.obls[root]; ok {
			o.released = true
		}
	}
}

// finalizeCall discharges the receiver root of a policy finalizer call
// (ib.telFinalize(...) releases ib's obligation).
func (t *ownTracker) finalizeCall(call *ast.CallExpr) {
	if len(t.p.finalizers) == 0 {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !t.p.finalizers[sel.Sel.Name] {
		return
	}
	if root := rootVar(t.info(), sel.X); root != nil {
		t.release(root)
	}
}

// scanTransfer walks an expression in ownership-transfer position and
// releases every tracked variable it mentions directly. Selector
// expressions are skipped entirely: `m.SetLen(5)` and `copy(m.Data(), p)`
// are uses of the resource, not transfers of its ownership — except for
// policy finalizer methods, which discharge their receiver.
func (t *ownTracker) scanTransfer(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			t.finalizeCall(n)
		case *ast.SelectorExpr:
			return false
		case *ast.Ident:
			if v, ok := objOf(t.info(), n).(*types.Var); ok {
				t.release(v)
			}
		}
		return true
	})
}

// scanCalls walks an expression in a non-transfer position (a condition)
// and applies transfer scanning only to call arguments, so `if m != nil`
// releases nothing but `if !q.Enqueue(m)` releases m.
func (t *ownTracker) scanCalls(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			t.finalizeCall(call)
			for _, a := range call.Args {
				t.scanTransfer(a)
			}
		}
		return true
	})
}

// mentionsErrVar reports which live obligations have their error variable
// referenced by cond (the classic `if err != nil` guard).
func (t *ownTracker) mentionsErrVar(cond ast.Expr) []*obligation {
	if cond == nil {
		return nil
	}
	var hit []*obligation
	ast.Inspect(cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objOf(t.info(), id)
		if obj == nil {
			return true
		}
		for _, o := range t.obls {
			if o.errVar != nil && o.errVar == obj {
				hit = append(hit, o)
			}
		}
		return true
	})
	return hit
}

func (t *ownTracker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		t.walkStmt(s)
	}
}

func (t *ownTracker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				if spec, ok := t.p.acquireCall(t.info(), call); ok {
					t.trackFromCall(spec, call, s.Lhs)
					return
				}
			}
		}
		if t.p.stampAssign != nil {
			t.p.stampAssign(t, s)
		}
		for _, rhs := range s.Rhs {
			t.scanTransfer(rhs)
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if spec, ok := t.p.acquireCall(t.info(), call); ok {
				t.trackFromCall(spec, call, nil)
				return
			}
		}
		t.scanTransfer(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			t.scanTransfer(r)
		}
		t.reportPending(s.Pos())
	case *ast.IfStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		t.scanCalls(s.Cond)
		guarded := t.mentionsErrVar(s.Cond)
		for _, o := range guarded {
			o.suppress++
		}
		t.walkStmts(s.Body.List)
		if s.Else != nil {
			t.walkStmt(s.Else)
		}
		for _, o := range guarded {
			o.suppress--
		}
	case *ast.BlockStmt:
		t.walkStmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		t.scanCalls(s.Cond)
		if s.Post != nil {
			t.walkStmt(s.Post)
		}
		t.walkStmts(s.Body.List)
	case *ast.RangeStmt:
		t.scanTransfer(s.X) // iterating a tracked batch is a disposal loop
		t.walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		t.scanCalls(s.Tag)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				t.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				t.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				if cc.Comm != nil {
					t.walkStmt(cc.Comm)
				}
				t.walkStmts(cc.Body)
			}
		}
	case *ast.DeferStmt:
		t.scanTransfer(s.Call)
	case *ast.GoStmt:
		t.scanTransfer(s.Call)
	case *ast.SendStmt:
		t.scanTransfer(s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						t.scanTransfer(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		t.walkStmt(s.Stmt)
	}
}

// trackFromCall registers the obligation created by an acquiring call.
// lhs is the assignment left-hand side, or nil for a bare statement call.
func (t *ownTracker) trackFromCall(spec acqSpec, call *ast.CallExpr, lhs []ast.Expr) {
	info := t.info()
	var v *types.Var
	var errVar types.Object
	if spec.argBind {
		// pool.AllocBulk(dst): the obligation lands on
		// the argument; the (single) result is the error.
		if len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				v, _ = objOf(info, id).(*types.Var)
			}
		}
		if len(lhs) > 0 {
			if id, ok := ast.Unparen(lhs[0]).(*ast.Ident); ok && id.Name != "_" {
				errVar = objOf(info, id)
			}
		}
	} else {
		// m, err := pool.Alloc(): a dropped result cannot leak (nothing
		// is bound), so bare calls are ignored here (checkederr owns that).
		if len(lhs) > 0 {
			if id, ok := ast.Unparen(lhs[0]).(*ast.Ident); ok && id.Name != "_" {
				v, _ = objOf(info, id).(*types.Var)
			}
		}
		if len(lhs) > 1 {
			if id, ok := ast.Unparen(lhs[1]).(*ast.Ident); ok && id.Name != "_" {
				errVar = objOf(info, id)
			}
		}
	}
	t.track(v, errVar, spec.kind, call.Pos())
}

// rootVar resolves the base variable of a selector/index/deref chain:
// rootVar(ib.span.StageEnd[k]) is ib's variable. Expressions without a
// stable base identifier yield nil.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := objOf(info, x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}
