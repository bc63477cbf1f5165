package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// mbufPkgPath is the import path of the package whose contract mbufleak
// enforces.
const mbufPkgPath = ModulePath + "/internal/mbuf"

// objOf resolves an identifier to its object, in either use or def
// position.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// calleeOf resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions and indirect calls through non-selector
// function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := objOf(info, fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := objOf(info, fun.Sel).(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // generic instantiation: ring.New[T](...)
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.Ident:
			if f, ok := objOf(info, x).(*types.Func); ok {
				return f
			}
		case *ast.SelectorExpr:
			if f, ok := objOf(info, x.Sel).(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// methodOn reports whether f is a method named one of names on the named
// type typeName defined in package pkgPath (pointer receivers included).
func methodOn(f *types.Func, pkgPath, typeName string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName && slices.Contains(names, f.Name())
}

// namedOf unwraps pointers and aliases down to the named type behind t,
// or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// lastResultIsError reports whether f's final result is the error
// interface.
func lastResultIsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// hasDirective reports whether a comment group carries the given
// //-directive (e.g. "dhl:hotpath"). Directive comments are excluded from
// doc text by go/ast, so the raw comment list is inspected.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//"+directive {
			return true
		}
	}
	return false
}
