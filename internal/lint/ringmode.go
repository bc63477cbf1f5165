package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// RingMode cross-checks declared ring.SyncMode against how the package
// actually touches each ring. A ring declared SingleProducer (or
// SingleProducerConsumer) must only be enqueued from one goroutine
// context; likewise SingleConsumer for dequeue. The analyzer builds a
// package-local call graph, treats every `go` statement callee as a
// distinct goroutine context (plus one "synchronous" context for code
// reachable without a go statement), and flags rings whose single-side
// call sites are reachable from two or more contexts.
//
// The analysis is package-scoped and name-based: rings are identified by
// the variable or struct field their constructor result is bound to.
// Rings handed across package boundaries are out of scope (the consuming
// package is analyzed on its own terms).
type RingMode struct{}

// Name implements Analyzer.
func (*RingMode) Name() string { return "ringmode" }

// Doc implements Analyzer.
func (*RingMode) Doc() string {
	return "flags ring.New/MustNew call sites whose declared SyncMode contradicts multi-goroutine producer/consumer usage"
}

// Check implements Analyzer.
func (r *RingMode) Check(pkg *Package) []Finding {
	ra := &ringAnalysis{an: r, pkg: pkg, byFunc: map[*types.Func]*fnode{}, goLits: map[*ast.FuncLit]bool{}}
	ra.build()
	return ra.report()
}

// fnode is one function (declaration or literal) in the package-local
// call graph.
type fnode struct {
	name    string
	origin  bool // spawned by a go statement
	callees map[*fnode]bool
	callers int
	pos     token.Pos
}

// ringUse is one enqueue/dequeue call site.
type ringUse struct {
	obj      types.Object // the ring's binding (variable or field)
	fn       *fnode
	producer bool
	pos      token.Pos
}

// ringDef is one ring.New/MustNew call with a constant mode and a stable
// binding.
type ringDef struct {
	obj  types.Object
	name string // the ring's name argument when constant, else the binding name
	mode string // const name: SingleProducer, SingleConsumer, ...
	pos  token.Pos
}

type ringAnalysis struct {
	an     *RingMode
	pkg    *Package
	byFunc map[*types.Func]*fnode
	goLits map[*ast.FuncLit]bool
	nodes  []*fnode
	uses   []ringUse
	defs   []ringDef
}

func (ra *ringAnalysis) newNode(name string, pos token.Pos) *fnode {
	n := &fnode{name: name, callees: map[*fnode]bool{}, pos: pos}
	ra.nodes = append(ra.nodes, n)
	return n
}

func (ra *ringAnalysis) build() {
	info := ra.pkg.Info
	// Pass 1: one node per declared function/method.
	for _, file := range ra.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if f, ok := info.Defs[fd.Name].(*types.Func); ok {
				ra.byFunc[f] = ra.newNode(fd.Name.Name, fd.Pos())
			}
		}
	}
	// Pass 2: edges, go-spawn origins, ring creations and usages.
	for _, file := range ra.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := info.Defs[fd.Name].(*types.Func); ok {
				ra.walk(ra.byFunc[f], fd.Body)
			}
		}
		ra.collectDefs(file)
	}
}

// walk attributes the contents of one function body to its node, creating
// child nodes for function literals.
func (ra *ringAnalysis) walk(cur *fnode, body ast.Node) {
	info := ra.pkg.Info
	skipIdent := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			switch fun := ast.Unparen(n.Call.Fun).(type) {
			case *ast.FuncLit:
				ra.goLits[fun] = true
			case *ast.Ident:
				if f, ok := objOf(info, fun).(*types.Func); ok {
					if t := ra.byFunc[f]; t != nil {
						t.origin = true
						skipIdent[fun] = true
					}
				}
			case *ast.SelectorExpr:
				if f, ok := objOf(info, fun.Sel).(*types.Func); ok {
					if t := ra.byFunc[f]; t != nil {
						t.origin = true
						skipIdent[fun.Sel] = true
					}
				}
			}
		case *ast.FuncLit:
			child := ra.newNode("func literal", n.Pos())
			if ra.goLits[n] {
				child.origin = true
			} else {
				// A literal that is not go-spawned may run on its
				// creator's goroutine (called inline or via a callback).
				cur.callees[child] = true
				child.callers++
			}
			ra.walk(child, n.Body)
			return false
		case *ast.CallExpr:
			ra.recordUse(cur, n)
		case *ast.Ident:
			if skipIdent[n] {
				return true
			}
			if f, ok := info.Uses[n].(*types.Func); ok {
				if t := ra.byFunc[f]; t != nil {
					cur.callees[t] = true
					t.callers++
				}
			}
		}
		return true
	})
}

var (
	producerMethods = []string{"Enqueue", "EnqueueBurst"}
	consumerMethods = []string{"DequeueBurst"}
)

// recordUse captures enqueue/dequeue call sites on identifiable rings.
func (ra *ringAnalysis) recordUse(cur *fnode, call *ast.CallExpr) {
	info := ra.pkg.Info
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	f := calleeOf(info, call)
	var producer bool
	switch {
	case methodOn(f, ringPkgPath, "Ring", producerMethods...):
		producer = true
	case methodOn(f, ringPkgPath, "Ring", consumerMethods...):
		producer = false
	default:
		return
	}
	obj := baseObj(info, sel.X)
	if obj == nil {
		return
	}
	ra.uses = append(ra.uses, ringUse{obj: obj, fn: cur, producer: producer, pos: call.Pos()})
}

// collectDefs finds ring constructions bound to a variable or field.
func (ra *ringAnalysis) collectDefs(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				ra.tryDef(n.Lhs[0], n.Rhs[0])
			} else {
				for i := range n.Rhs {
					if i < len(n.Lhs) {
						ra.tryDef(n.Lhs[i], n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 0 {
				ra.tryDef(n.Names[0], n.Values[0])
			} else {
				for i := range n.Values {
					if i < len(n.Names) {
						ra.tryDef(n.Names[i], n.Values[i])
					}
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				ra.tryDef(key, n.Value)
			}
		}
		return true
	})
}

// tryDef records a ring definition if rhs is ring.New/MustNew with a
// constant single-sided mode and lhs has a stable identity.
func (ra *ringAnalysis) tryDef(lhs, rhs ast.Expr) {
	info := ra.pkg.Info
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	f := calleeOf(info, call)
	if !funcIn(f, ringPkgPath, "New", "MustNew") || len(call.Args) < 3 {
		return
	}
	modeName, ok := constModeName(f.Pkg(), info, call.Args[2])
	if !ok {
		return
	}
	obj := baseObj(info, lhs)
	if obj == nil {
		return
	}
	name := obj.Name()
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		name = constant.StringVal(tv.Value)
	}
	ra.defs = append(ra.defs, ringDef{obj: obj, name: name, mode: modeName, pos: call.Pos()})
}

// constModeName resolves a constant SyncMode argument to the name of the
// matching ring package constant.
func constModeName(ringPkg *types.Package, info *types.Info, arg ast.Expr) (string, bool) {
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil {
		return "", false
	}
	val, ok := constant.Int64Val(tv.Value)
	if !ok {
		return "", false
	}
	for _, cname := range []string{"MultiProducerConsumer", "SingleProducer", "SingleConsumer", "SingleProducerConsumer"} {
		if c, ok := ringPkg.Scope().Lookup(cname).(*types.Const); ok {
			if cv, ok := constant.Int64Val(c.Val()); ok && cv == val {
				return cname, true
			}
		}
	}
	return "", false
}

// report computes goroutine contexts and flags contradictions.
func (ra *ringAnalysis) report() []Finding {
	// Reachability from each goroutine origin.
	contexts := map[*fnode]map[*fnode]bool{} // fn -> set of origins reaching it
	for _, n := range ra.nodes {
		if n.origin {
			reach(n, func(m *fnode) {
				if contexts[m] == nil {
					contexts[m] = map[*fnode]bool{}
				}
				contexts[m][n] = true
			})
		}
	}
	// Reachability from synchronous entry points (functions nobody in this
	// package calls, minus go-spawned ones: main, exported API, callbacks).
	syncReach := map[*fnode]bool{}
	for _, n := range ra.nodes {
		if !n.origin && n.callers == 0 {
			reach(n, func(m *fnode) { syncReach[m] = true })
		}
	}

	var out []Finding
	for _, def := range ra.defs {
		for _, side := range []struct {
			single   bool
			producer bool
			verb     string
		}{
			{def.mode == "SingleProducer" || def.mode == "SingleProducerConsumer", true, "enqueued"},
			{def.mode == "SingleConsumer" || def.mode == "SingleProducerConsumer", false, "dequeued"},
		} {
			if !side.single {
				continue
			}
			origins := map[*fnode]bool{}
			sync := false
			for _, u := range ra.uses {
				if u.obj != def.obj || u.producer != side.producer {
					continue
				}
				for o := range contexts[u.fn] {
					origins[o] = true
				}
				if syncReach[u.fn] {
					sync = true
				}
			}
			n := len(origins)
			if sync {
				n++
			}
			if n >= 2 {
				out = append(out, finding(ra.an.Name(), ra.pkg.Position(def.pos),
					"ring %q is declared ring.%s but is %s from %d goroutine contexts; use a multi-%s mode or restructure",
					def.name, def.mode, side.verb, n, map[bool]string{true: "producer", false: "consumer"}[side.producer]))
			}
		}
	}
	return out
}

// reach walks the call graph from n, invoking visit once per node.
func reach(n *fnode, visit func(*fnode)) {
	seen := map[*fnode]bool{}
	var dfs func(*fnode)
	dfs = func(m *fnode) {
		if seen[m] {
			return
		}
		seen[m] = true
		visit(m)
		for c := range m.callees {
			dfs(c)
		}
	}
	dfs(n)
}
