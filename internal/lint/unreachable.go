package lint

import (
	"go/ast"
	"go/types"
)

// unreachable flags every non-test function that no root reaches over
// the module call graph: production code carries only what production
// runs. The roots are
//
//   - main in every main package (cmd/, examples/ and the nested
//     cmd/etperf benchmark all load as module packages) and every init;
//   - the exported API of the non-internal library packages (the
//     exptrain facade and client), plus the exported methods of every
//     module type such a package re-exports by alias;
//   - functions referenced from package-level declarations (dispatch
//     tables, flag defaults, function-valued vars);
//   - every method whose name and signature match a method of an
//     interface declared in the module or in an imported
//     standard-library package — fmt, sort, json, http and friends
//     dispatch to those without a call site the graph can see — plus
//     error's Error and the Is/As/Unwrap methods errors looks up.
//
// A finding is fixed by deleting the function (with the tests that
// only it served), moving it into a _test.go file when tests use it as
// an oracle or helper, or — only when tests in several packages share
// it, since Go cannot import _test.go code across packages — an
// audited suppression naming those packages. internal/persist/faulty
// is exempt as the one test-support package, and a load with no main
// package (a library fixture) has no entry points and reports nothing.
type unreachable struct{}

func (unreachable) ID() string { return "unreachable" }
func (unreachable) Doc() string {
	return "every non-test function is reachable from a main, an init, the public API, a package-level declaration or an interface method; delete dead code or move test helpers into _test.go files"
}
func (unreachable) Check(p *Package) []Finding { return nil }

// errorsMethods are error's Error method and the Is, As and Unwrap
// methods package errors finds by asserting anonymous interfaces, keyed
// like ifaceMethods.
var errorsMethods = []string{
	"Error()(string)",
	"Is(error)(bool)",
	"As(any)(bool)",
	"As(interface{})(bool)",
	"Unwrap()(error)",
	"Unwrap()([]error)",
}

func (unreachable) CheckModule(m *Module) []Finding {
	var roots []*FuncNode
	hasMain := false
	for _, n := range m.order {
		if n.Decl == nil || n.Recv != "" {
			continue
		}
		switch {
		case n.Name == "main" && n.Pkg.Pkg.Name() == "main":
			hasMain = true
			roots = append(roots, n)
		case n.Name == "init":
			roots = append(roots, n)
		}
	}
	if !hasMain {
		return nil
	}

	iface := ifaceMethods(m)
	for _, n := range m.order {
		if n.Decl == nil {
			continue
		}
		switch {
		case public(n.Pkg) && ast.IsExported(n.Name) && (n.Recv == "" || ast.IsExported(n.Recv)):
			roots = append(roots, n)
		case n.Recv != "" && iface[n.Name+sigKey(n.signature())]:
			roots = append(roots, n)
		}
	}
	for _, p := range m.Pkgs {
		roots = append(roots, declRefs(m, p)...)
		if public(p) {
			roots = append(roots, aliasedMethods(m, p)...)
		}
	}

	seen := make(map[*FuncNode]bool, len(m.order))
	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range n.Edges {
			if e.To != nil && !seen[e.To] {
				roots = append(roots, e.To)
			}
		}
	}

	var out []Finding
	for _, n := range m.order {
		if n.Decl == nil || seen[n] || n.Pkg.Rel == "internal/persist/faulty" {
			continue
		}
		name := n.Name
		if n.Recv != "" {
			name = n.Recv + "." + n.Name
		}
		out = append(out, findingAt(n.Pkg, n.Decl.Pos(), "unreachable",
			"%s is unreachable: no main, init, public API, package-level declaration or interface method reaches it; delete it, move it into a _test.go file, or suppress it naming the packages whose tests share it", name))
	}
	return out
}

// public reports whether p is a library package outside internal/:
// its exported API is callable from other modules.
func public(p *Package) bool { return !p.Internal() && p.Pkg.Name() != "main" }

// ifaceMethods collects name+sigKey for every method of every
// package-level interface type in the module and in the
// standard-library packages it imports, plus errorsMethods.
func ifaceMethods(m *Module) map[string]bool {
	out := make(map[string]bool)
	for _, k := range errorsMethods {
		out[k] = true
	}
	done := make(map[*types.Package]bool)
	add := func(pkg *types.Package) {
		if done[pkg] {
			return
		}
		done[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				fn := it.Method(i)
				out[fn.Name()+sigKey(fn.Type().(*types.Signature))] = true
			}
		}
	}
	for _, p := range m.Pkgs {
		add(p.Pkg)
		for _, imp := range p.Pkg.Imports() {
			if _, inModule := m.relOf(imp); !inModule {
				add(imp)
			}
		}
	}
	return out
}

// declRefs returns the module functions referenced anywhere inside a
// package-level var or const declaration, function literal bodies
// included (those literals are not call-graph nodes).
func declRefs(m *Module, p *Package) []*FuncNode {
	var out []*FuncNode
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			ast.Inspect(gd, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if fn, ok := p.Info.Uses[id].(*types.Func); ok {
						if n := m.nodeFor(fn); n != nil {
							out = append(out, n)
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// aliasedMethods returns the exported methods of every module type the
// public package p re-exports with a type alias.
func aliasedMethods(m *Module, p *Package) []*FuncNode {
	var out []*FuncNode
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		named := namedOf(tn.Type())
		if named == nil {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			fn := named.Method(i)
			if !fn.Exported() {
				continue
			}
			if n := m.nodeFor(fn); n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}
