package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// Unreferenced flags code of internal/ packages that nothing runs. Its
// roots are the non-test code of every package outside internal/ (the
// facade, commands, examples, the benchmark), every init function and
// every package-level variable initializer. A package-level identifier or
// method of an internal/ package that no root reaches through non-test
// references is a finding: a function only its own tests call, an error
// nothing returns, a type nothing names.
//
// A method is reached by a call or method value, or when its receiver type
// is reached and its name belongs to an interface the module names, or to
// one the standard library calls (error and Unwrap, fmt.Stringer, the text
// and JSON (un)marshalers). A reached type does not make the rest of its
// method set reachable: a facade accessor returning a *core.Runtime keeps
// only the methods someone calls.
//
// A finding is resolved by deleting the identifier, by moving it into a
// _test.go file when its package's tests are its only reader, or by a
// //dhl:allow unreferenced directive that names its reader (an oracle, a
// reserved roadmap item). An allowed identifier counts as a root, so what
// it calls is not flagged in turn.
//
// The same rule holds for knobs: an exported field of an exported *Config
// struct of an internal/ package that no non-test file sets is a finding
// too (see configFields).
//
// Reachability needs the whole tree, so the analyzer loads it even when
// only some of its packages were asked for, and reports only in those.
type Unreferenced struct{}

// Name implements Analyzer.
func (*Unreferenced) Name() string { return "unreferenced" }

// Doc implements Analyzer.
func (*Unreferenced) Doc() string {
	return "flags identifiers of internal/ packages that no non-internal package, init or initializer reaches, and *Config fields no non-test code sets"
}

// Check implements Analyzer; per-package operation delegates to the
// module-wide pass so direct use still works.
func (u *Unreferenced) Check(pkg *Package) []Finding {
	return u.CheckModule([]*Package{pkg})
}

// dispatchedNames are the methods the standard library calls through its
// own interfaces.
var dispatchedNames = []string{
	"Error", "Unwrap", "String",
	"MarshalText", "UnmarshalText", "MarshalJSON", "UnmarshalJSON",
}

// CheckModule implements ModuleAnalyzer.
func (u *Unreferenced) CheckModule(pkgs []*Package) []Finding {
	wanted := make(map[*Package]bool)
	trees := make(map[string]*Loader)
	var dirs []string
	for _, pkg := range pkgs {
		wanted[pkg] = true
		if dir := treeRoot(pkg); trees[dir] == nil {
			trees[dir] = pkg.loader
			dirs = append(dirs, dir)
		}
	}
	slices.Sort(dirs)
	var out []Finding
	for _, dir := range dirs {
		// A tree that does not load has a package that does not
		// type-check; the CLI reports that when it is a target.
		if tree, err := trees[dir].LoadTree(dir); err == nil {
			out = append(out, u.checkTree(dir, tree, wanted)...)
		}
	}
	return out
}

// treeRoot is the directory reachability is judged over: the module root,
// or for a lint fixture its testdata/src/<name> directory, which stands in
// for a module of its own.
func treeRoot(pkg *Package) string {
	marker := string(filepath.Separator) + filepath.Join("testdata", "src") + string(filepath.Separator)
	if i := strings.Index(pkg.Dir, marker); i >= 0 {
		name, _, _ := strings.Cut(pkg.Dir[i+len(marker):], string(filepath.Separator))
		return pkg.Dir[:i+len(marker)] + name
	}
	return pkg.loader.Root
}

// declSite is where one package-level object is declared: the node that
// reaching the object walks, and the package whose Info resolves it.
type declSite struct {
	pkg  *Package
	node ast.Node
}

func (u *Unreferenced) checkTree(dir string, tree []*Package, wanted map[*Package]bool) []Finding {
	decls := make(map[types.Object]declSite)
	reached := make(map[types.Object]bool)
	var work []types.Object
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	walk := func(site declSite) {
		ast.Inspect(site.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && site.pkg.Info.Uses[id] != nil {
				mark(site.pkg.Info.Uses[id])
			}
			return true
		})
	}
	ifaceNames := make(map[string]bool)
	for _, n := range dispatchedNames {
		ifaceNames[n] = true
	}
	// drain walks queued declarations until nothing new is reached,
	// adding a reached type's methods that dynamic dispatch may call.
	drain := func() {
		for len(work) > 0 {
			for len(work) > 0 {
				obj := work[len(work)-1]
				work = work[:len(work)-1]
				walk(decls[obj])
			}
			for obj := range reached {
				if tn, ok := obj.(*types.TypeName); ok {
					ms := types.NewMethodSet(types.NewPointer(tn.Type()))
					for i := 0; i < ms.Len(); i++ {
						if m := ms.At(i).Obj(); ifaceNames[m.Name()] {
							mark(m)
						}
					}
				}
			}
		}
	}

	allow := buildAllowIndex(tree)
	var roots []declSite
	var allowed []types.Object
	treePath, _ := tree[0].loader.pathFor(dir)
	internal := func(pkg *Package) bool {
		rel := strings.TrimPrefix(pkg.ImportPath, treePath)
		return slices.Contains(strings.Split(rel, "/"), "internal")
	}
	for _, pkg := range tree {
		for _, tv := range pkg.Info.Types {
			if _, ok := tv.Type.(*types.TypeParam); ok {
				continue
			}
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
		if !internal(pkg) {
			for _, file := range pkg.Files {
				roots = append(roots, declSite{pkg, file})
			}
			continue
		}
		declare := func(id *ast.Ident, node ast.Node) {
			if obj := pkg.Info.Defs[id]; obj != nil && id.Name != "_" {
				decls[obj] = declSite{pkg, node}
				if allow.allows(finding(u.Name(), pkg.Position(id.Pos()), "")) {
					allowed = append(allowed, obj)
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, declSite{pkg, d})
					} else {
						declare(d.Name, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s)
						case *ast.ValueSpec:
							for _, v := range s.Values {
								if d.Tok == token.VAR {
									roots = append(roots, declSite{pkg, v})
								}
							}
							for _, id := range s.Names {
								declare(id, s)
							}
						}
					}
				}
			}
		}
	}
	for _, root := range roots {
		walk(root)
	}
	drain()
	// An allowed identifier nothing else reaches is still reported, for
	// Run to filter, and counts as a root from then on.
	unreached := make(map[types.Object]bool)
	for _, obj := range allowed {
		if !reached[obj] {
			unreached[obj] = true
			mark(obj)
		}
	}
	drain()

	out := u.configFields(tree, internal, wanted, reached)
	for obj, site := range decls {
		if reached[obj] && !unreached[obj] || !wanted[site.pkg] {
			continue
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			named := namedOf(sig.Recv().Type())
			if named != nil && !reached[named.Obj()] {
				continue // the receiver type's own finding covers it
			}
			name = "(" + types.TypeString(sig.Recv().Type(), (*types.Package).Name) + ")." + obj.Name()
		}
		out = append(out, finding(u.Name(), site.pkg.Position(obj.Pos()),
			"%s is not reached from outside internal/; delete it, move it to a _test.go file, or allow it naming its reader", name))
	}
	return out
}
