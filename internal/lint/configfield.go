package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// configFields is unreferenced's second rule: a knob exists only where a
// program sets it. An exported field of an exported struct type of an
// internal/ package whose name ends in Config is a finding when no
// non-test file of the tree writes it. A write is a composite-literal
// element (keyed, or every field of an unkeyed literal), an assignment or
// increment, or taking the field's address. A write inside an if whose
// condition tests a field of the same config value for zero (the field
// itself, or a sibling such as a range's base) is that value's default,
// not a setting. Fields of instantiated generic types count as the
// generic declaration's field.
//
// A finding is resolved by deleting the field (its readers take the
// constant its default used) or by a //dhl:allow unreferenced directive
// naming the reader that varies it.
func (u *Unreferenced) configFields(tree []*Package, internal func(*Package) bool, wanted map[*Package]bool, reached map[types.Object]bool) []Finding {
	fields := make(map[*types.Var]Finding)
	for _, pkg := range tree {
		if !internal(pkg) || !wanted[pkg] {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") || !reached[pkg.Info.Defs[ts.Name]] {
						continue
					}
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							if v, ok := pkg.Info.Defs[id].(*types.Var); ok && id.IsExported() {
								fields[v] = finding(u.Name(), pkg.Position(id.Pos()),
									"%s.%s.%s has no non-test write; make it a constant, or allow it naming its reader",
									pkg.Types.Name(), ts.Name.Name, id.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		return nil
	}

	written := make(map[*types.Var]bool)
	for _, pkg := range tree {
		w := fieldWrites{info: pkg.Info, written: written}
		for _, file := range pkg.Files {
			w.scan(file, nil)
		}
	}

	var out []Finding
	for v, f := range fields {
		if !written[v] {
			out = append(out, f)
		}
	}
	return out
}

// fieldWrites records the struct fields one package's files write.
type fieldWrites struct {
	info    *types.Info
	written map[*types.Var]bool
}

// field resolves a selector expression to the struct field it selects.
func (w fieldWrites) field(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// value names the config value a field selector reads: the source text
// of the expression left of the field, so cfg.PortBase and cfg.PortCount
// share one.
func value(e ast.Expr) string {
	return types.ExprString(ast.Unparen(e).(*ast.SelectorExpr).X)
}

// write marks the field e selects, unless a guard tests a field of the
// same value for zero.
func (w fieldWrites) write(e ast.Expr, guards map[string]bool) {
	if v := w.field(e); v != nil && !guards[value(e)] {
		w.written[v] = true
	}
}

// scan walks n, carrying the values an enclosing if tests a field of for
// zero.
func (w fieldWrites) scan(n ast.Node, guards map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			w.scan(n.Init, guards)
			w.scan(n.Cond, guards)
			inner := guards
			if zs := w.zeroTested(n.Cond); len(zs) > 0 {
				inner = make(map[string]bool, len(guards)+len(zs))
				maps.Copy(inner, guards)
				for _, v := range zs {
					inner[v] = true
				}
			}
			w.scan(n.Body, inner)
			w.scan(n.Else, guards)
			return false
		case *ast.CompositeLit:
			st, ok := typeUnder(w.info.TypeOf(n)).(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && w.info.Uses[id] != nil {
						v := w.info.Uses[id].(*types.Var)
						w.written[v.Origin()] = true
					}
				} else if i < st.NumFields() {
					w.written[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.write(lhs, guards)
			}
		case *ast.IncDecStmt:
			w.write(n.X, guards)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				w.write(n.X, guards)
			}
		}
		return true
	})
}

// zeroTested returns the values cond compares a field of with a zero
// value (==, <= or < against 0, "" or nil), through && and || chains.
func (w fieldWrites) zeroTested(cond ast.Expr) []string {
	var out []string
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.EQL, token.LEQ, token.LSS:
			if w.field(b.X) != nil && w.isZero(b.Y) {
				out = append(out, value(b.X))
			} else if w.field(b.Y) != nil && w.isZero(b.X) {
				out = append(out, value(b.Y))
			}
		}
		return true
	})
	return out
}

// isZero reports whether e is the constant 0, "" or nil.
func (w fieldWrites) isZero(e ast.Expr) bool {
	tv, ok := w.info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return true
	}
	switch v := tv.Value; {
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Int, v.Kind() == constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}

// typeUnder is t's underlying type, through one pointer.
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem().Underlying()
	}
	return t.Underlying()
}
