package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncKey names one function (or function literal) across the loaded
// packages: "rel|Name" for package functions, "rel|Recv.Name" for
// methods, "rel|init#N" for the N-th init function, and "parent$N" for
// the N-th function literal (in source order) inside parent.
type FuncKey string

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a synchronous call. A function literal or declared
	// function referenced as a value is over-approximated as called at
	// the reference site.
	EdgeCall EdgeKind = iota
	// EdgeGo is a `go` statement: the callee runs on a fresh goroutine
	// stack, so locks held at the spawn site are not held inside it.
	EdgeGo
	// EdgeDefer is a deferred call. It runs with whatever the function
	// still holds on return, which the walker approximates with the
	// held set at the defer statement.
	EdgeDefer
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	default:
		return "call"
	}
}

// Edge is one resolved call site.
type Edge struct {
	From *FuncNode
	To   *FuncNode
	Kind EdgeKind
	Pos  token.Pos
	// Held are the lock classes believed held at the site, in
	// acquisition order.
	Held []lockClass
}

// FuncNode is one function in the call graph.
type FuncNode struct {
	Key  FuncKey
	Pkg  *Package
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Recv string        // receiver type name, "" for plain functions
	Name string        // declared name; the parent's name for literals
	// Edges are the node's outgoing call sites in source order.
	Edges []*Edge

	sum  *funcSummary
	lits int // counter for child literal keys
}

// Pos is the function's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// signature returns the declared function's type, nil for literals.
func (n *FuncNode) signature() *types.Signature {
	if n.Decl == nil {
		return nil
	}
	fn, ok := n.Pkg.Info.Defs[n.Decl.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// Module is the interprocedural view the summary-driven rules consume:
// every loaded package, a CHA-style call graph, and per-function
// summaries of lock, channel, goroutine and context behaviour.
type Module struct {
	Pkgs  []*Package
	Funcs map[FuncKey]*FuncNode

	// order is the deterministic analysis and reporting order:
	// declaration order, literals appended as discovered.
	order   []*FuncNode
	pathRel map[string]string // import path → module-relative dir
	methods map[string][]*FuncNode

	ta map[*FuncNode]map[lockClass]token.Pos // transitive acquires
	tb map[*FuncNode]blockSite               // transitive may-block cause
}

// NewModule builds the call graph and function summaries for pkgs.
// Static calls resolve through go/types; calls through interface
// methods resolve CHA-style to every module method with the same name
// and signature shape, whether or not its receiver implements the
// interface — a documented over-approximation.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:    pkgs,
		Funcs:   make(map[FuncKey]*FuncNode),
		pathRel: make(map[string]string),
		methods: make(map[string][]*FuncNode),
	}
	for _, p := range pkgs {
		m.pathRel[p.Pkg.Path()] = p.Rel
		if p.Path != "" {
			m.pathRel[p.Path] = p.Rel
		}
	}
	for _, p := range pkgs {
		inits := 0
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				recv := recvTypeName(fd)
				var key FuncKey
				switch {
				case recv != "":
					key = FuncKey(p.Rel + "|" + recv + "." + name)
				case name == "init":
					key = FuncKey(fmt.Sprintf("%s|init#%d", p.Rel, inits))
					inits++
				default:
					key = FuncKey(p.Rel + "|" + name)
				}
				n := &FuncNode{Key: key, Pkg: p, Decl: fd, Recv: recv, Name: name}
				m.Funcs[key] = n
				m.order = append(m.order, n)
				if recv != "" {
					m.methods[name] = append(m.methods[name], n)
				}
			}
		}
	}
	decls := m.order
	for _, n := range decls {
		analyzeFunc(m, n)
	}
	m.buildTransitive()
	return m
}

// litNode registers the parent's next function literal as a node.
func (m *Module) litNode(parent *FuncNode, lit *ast.FuncLit) *FuncNode {
	key := FuncKey(fmt.Sprintf("%s$%d", parent.Key, parent.lits))
	parent.lits++
	n := &FuncNode{Key: key, Pkg: parent.Pkg, Lit: lit, Recv: parent.Recv, Name: parent.Name}
	m.Funcs[key] = n
	m.order = append(m.order, n)
	return n
}

// relOf maps a types package to its module-relative dir; ok is false
// for packages outside the loaded set (stdlib).
func (m *Module) relOf(pkg *types.Package) (string, bool) {
	if pkg == nil {
		return "", false
	}
	rel, ok := m.pathRel[pkg.Path()]
	return rel, ok
}

// nodeFor resolves a *types.Func use to its declared node. It returns
// nil for functions outside the loaded packages and for interface
// methods (which have no declared body; see implementers).
func (m *Module) nodeFor(fn *types.Func) *FuncNode {
	rel, ok := m.relOf(fn.Pkg())
	if !ok {
		return nil
	}
	key := FuncKey(rel + "|" + fn.Name())
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name := namedName(sig.Recv().Type())
		if name == "" {
			return nil
		}
		key = FuncKey(rel + "|" + name + "." + fn.Name())
	}
	return m.Funcs[key]
}

// implementers returns every declared module method with the given
// name and an identical parameter/result type list — the CHA
// resolution of an interface-method call. Types are compared as
// package-qualified strings rather than by object identity, and no
// method set is consulted, so every true implementer is included along
// with any same-shaped method on a type that does not implement the
// interface.
func (m *Module) implementers(name string, sig *types.Signature) []*FuncNode {
	want := sigKey(sig)
	var out []*FuncNode
	for _, n := range m.methods[name] {
		ns := n.signature()
		if ns == nil || ns.Recv() == nil {
			continue
		}
		if sigKey(ns) == want {
			out = append(out, n)
		}
	}
	return out
}

// sigKey canonicalizes a signature's parameter and result types,
// ignoring parameter names and the receiver.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	writeTuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	writeTuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	writeTuple(sig.Results())
	return b.String()
}

// buildTransitive computes, as fixpoints over non-go edges, the lock
// classes each function may acquire (directly or via callees) and
// whether it may block on a channel or Wait. Go edges are excluded:
// a spawned goroutine acquires and blocks on its own stack.
func (m *Module) buildTransitive() {
	m.ta = make(map[*FuncNode]map[lockClass]token.Pos, len(m.order))
	m.tb = make(map[*FuncNode]blockSite, len(m.order))
	for _, n := range m.order {
		acc := make(map[lockClass]token.Pos)
		for _, a := range n.sum.acquires {
			if old, ok := acc[a.class]; !ok || a.pos < old {
				acc[a.class] = a.pos
			}
		}
		m.ta[n] = acc
		for _, b := range n.sum.blocks {
			if old, ok := m.tb[n]; !ok || b.pos < old.pos {
				m.tb[n] = blockSite{pos: b.pos, what: b.what}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range m.order {
			acc := m.ta[n]
			for _, e := range n.Edges {
				if e.Kind == EdgeGo || e.To == nil {
					continue
				}
				for c, p := range m.ta[e.To] {
					if old, ok := acc[c]; !ok || p < old {
						acc[c] = p
						changed = true
					}
				}
				if cause, ok := m.tb[e.To]; ok {
					if old, had := m.tb[n]; !had || cause.pos < old.pos {
						m.tb[n] = cause
						changed = true
					}
				}
			}
		}
	}
}

// recvTypeName extracts the receiver's type name from a declaration,
// stripping pointers and type parameters.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// namedName returns the (possibly pointered or aliased) named type's
// name, "" when the type is not named.
func namedName(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// namedOf returns the underlying *types.Named, nil when there is none.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// findingAt builds a Finding at a raw token position.
func findingAt(p *Package, pos token.Pos, rule, format string, args ...any) Finding {
	ps := p.Fset.Position(pos)
	return Finding{Rule: rule, File: ps.Filename, Line: ps.Line, Col: ps.Column, Message: fmt.Sprintf(format, args...)}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
