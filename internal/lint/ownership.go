package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is mbufleak's intra-procedural ownership/CFG walker: an
// acquisition (mbufAcquire) creates an obligation bound to a variable,
// control flow is walked path-sensitively, and any path to a return on
// which the obligation was neither released nor handed off is a finding.
//
// The analysis is deliberately generous about what counts as a transfer
// (any use of the tracked variable as a call argument, return value,
// assignment source, composite-literal element or channel send releases
// the obligation); what it flags is the unambiguous case — an acquisition
// with a path to a return that never hands the resource to anyone.

// acqSpec classifies one acquiring call.
type acqSpec struct {
	// kind names the acquisition in diagnostics (Alloc, AllocBulk).
	kind string
	// argBind binds the obligation to the call's first argument instead of
	// the assignment's first result (mbuf.Pool.AllocBulk(dst) style).
	argBind bool
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

// checkOwnership runs the walker over every function declaration and
// literal of the package.
func checkOwnership(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					t := newOwnTracker(pkg)
					t.checkFunc(n.Name.Name, n.Body)
					out = append(out, t.out...)
				}
			case *ast.FuncLit:
				// Each literal is analyzed as its own function; the
				// statement walk never descends into literal bodies for
				// acquisition purposes.
				t := newOwnTracker(pkg)
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
	pkg *Package
	out []Finding
	fn  string
	// obls maps each tracked variable to its obligation. A parameter is
	// tracked like a local: AllocBulk(dst) on a parameter fills buffers
	// the function owns.
	obls map[*types.Var]*obligation
}

func newOwnTracker(pkg *Package) *ownTracker {
	return &ownTracker{pkg: pkg, obls: make(map[*types.Var]*obligation)}
}

func (t *ownTracker) info() *types.Info { return t.pkg.Info }

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
		t.out = append(t.out, finding(mbufLeakName, t.pkg.Position(o.pos),
			"%s: mbuf %q obtained via %s may leak: function can return (line %d) without Free or handing ownership off",
			t.fn, o.v.Name(), o.kind, t.pkg.Position(at).Line))
	}
}

// track registers a new obligation for v.
func (t *ownTracker) track(v *types.Var, errVar types.Object, kind string, pos token.Pos) {
	if v == nil {
		return
	}
	t.obls[v] = &obligation{v: v, errVar: errVar, kind: kind, pos: pos}
}

// release discharges the obligation on v.
func (t *ownTracker) release(v *types.Var) {
	if o, ok := t.obls[v]; ok {
		o.released = true
	}
}

// scanTransfer walks an expression in ownership-transfer position and
// releases every tracked variable it mentions directly. Selector
// expressions are skipped entirely: `m.SetLen(5)` and `copy(m.Data(), p)`
// are uses of the resource, not transfers of its ownership.
func (t *ownTracker) scanTransfer(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
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
				if spec, ok := mbufAcquire(t.info(), call); ok {
					t.trackFromCall(spec, call, s.Lhs)
					return
				}
			}
		}
		for _, rhs := range s.Rhs {
			t.scanTransfer(rhs)
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if spec, ok := mbufAcquire(t.info(), call); ok {
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
