package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// errKind audits the HTTP error envelope end to end. It activates on
// any package defining both the `kindRegistry` table and the
// `errorKind` classifier (internal/service in the real tree) and
// checks, over the whole module:
//
//   - every Err* sentinel produced in the envelope package or its
//     module dependencies has an errors.Is mapping in errorKind —
//     otherwise it reaches clients as the catch-all "internal";
//   - every registered kind has a producing path: some errorKind case
//     returning it tests a sentinel that is actually produced (context
//     sentinels and the default case count as produced) — otherwise
//     the kind is dead weight in the append-only registry;
//   - every kind errorKind returns is registered.
type errKind struct{}

func (errKind) ID() string { return "errkind" }
func (errKind) Doc() string {
	return "every producible error sentinel maps to a registered kind, and every registered kind has a producing path"
}
func (errKind) Check(p *Package) []Finding { return nil }

func (errKind) CheckModule(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		reg := findKindRegistry(p)
		ek := findFuncDecl(p, "errorKind")
		if reg == nil || ek == nil {
			continue
		}
		out = append(out, checkEnvelope(m, p, reg, ek)...)
	}
	return out
}

// registryEntry is one row of the kindRegistry composite literal.
type registryEntry struct {
	kind string
	pos  token.Pos
}

func findKindRegistry(p *Package) []registryEntry {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "kindRegistry" || len(vs.Values) != 1 {
					continue
				}
				cl, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				var entries []registryEntry
				for _, elt := range cl.Elts {
					row, ok := elt.(*ast.CompositeLit)
					if !ok || len(row.Elts) == 0 {
						continue
					}
					if k, ok := constString(p, row.Elts[0]); ok {
						entries = append(entries, registryEntry{kind: k, pos: row.Pos()})
					}
				}
				return entries
			}
		}
	}
	return nil
}

func findFuncDecl(p *Package, name string) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

func constString(p *Package, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// kindCase is one errorKind case: the kind it returns, the sentinels
// guarding it, and whether a stdlib context sentinel guards it.
type kindCase struct {
	kind      string
	pos       token.Pos
	sentinels []string // sentinel keys "rel.Name"
	ctxGuard  bool
	isDefault bool
}

// sentinelKey names a sentinel "rel.Name" by its module-relative
// package: the name errkind findings print, and a key that sorts into
// a stable report order.
func sentinelKey(m *Module, obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	rel, ok := m.relOf(obj.Pkg())
	if !ok {
		return "", false
	}
	return rel + "." + obj.Name(), true
}

func checkEnvelope(m *Module, p *Package, reg []registryEntry, ek *ast.FuncDecl) []Finding {
	// Parse the classifier: every case clause in errorKind's body.
	var cases []kindCase
	ast.Inspect(ek.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		kc := kindCase{isDefault: cc.List == nil, pos: cc.Pos()}
		for _, guard := range cc.List {
			ast.Inspect(guard, func(gn ast.Node) bool {
				call, ok := gn.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, name, ok := p.pkgSel(call.Fun); ok && path == "errors" && (name == "Is" || name == "As") && len(call.Args) == 2 {
					if path2, name2, ok := p.pkgSel(call.Args[1]); ok && path2 == "context" && (name2 == "DeadlineExceeded" || name2 == "Canceled") {
						kc.ctxGuard = true
						return true
					}
					if key, ok := sentinelKey(m, objOfIn(p, call.Args[1])); ok {
						kc.sentinels = append(kc.sentinels, key)
					}
				}
				return true
			})
		}
		for _, st := range cc.Body {
			if ret, ok := st.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				if k, ok := constString(p, ret.Results[0]); ok {
					kc.kind = k
					kc.pos = ret.Pos()
				}
				break
			}
		}
		if kc.kind != "" {
			cases = append(cases, kc)
		}
		return true
	})

	// Scope: the envelope package plus its transitive module imports.
	scope := envelopeScope(m, p)

	// Sentinel universe and production sites within the scope.
	sentinelDecls := make(map[string]bool)
	for _, sp := range scope {
		tp := sp.Pkg.Scope()
		for _, name := range tp.Names() {
			v, ok := tp.Lookup(name).(*types.Var)
			if !ok || !strings.HasPrefix(name, "Err") || v.Type().String() != "error" {
				continue
			}
			if key, ok := sentinelKey(m, v); ok {
				sentinelDecls[key] = true
			}
		}
	}
	produced := make(map[string]token.Pos) // sentinel key → min producing use
	prodPkg := make(map[string]*Package)
	for _, sp := range scope {
		for _, f := range sp.Files {
			// A use as the target of errors.Is/As is a test, not a
			// production; shield the sentinel identifier's position.
			shielded := make(map[token.Pos]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, name, ok := sp.pkgSel(call.Fun); ok && path == "errors" && (name == "Is" || name == "As") && len(call.Args) == 2 {
					switch arg := unparen(call.Args[1]).(type) {
					case *ast.SelectorExpr:
						shielded[arg.Sel.Pos()] = true
					case *ast.Ident:
						shielded[arg.Pos()] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				// The classifier itself only inspects sentinels.
				if fd, ok := n.(*ast.FuncDecl); ok && fd == ek {
					return false
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := sp.Info.Uses[id]
				if obj == nil || shielded[id.Pos()] {
					return true
				}
				key, ok := sentinelKey(m, obj)
				if !ok || !sentinelDecls[key] {
					return true
				}
				if old, seen := produced[key]; !seen || id.Pos() < old {
					produced[key] = id.Pos()
					prodPkg[key] = sp
				}
				return true
			})
		}
	}

	mapped := make(map[string]bool)
	for _, kc := range cases {
		for _, s := range kc.sentinels {
			mapped[s] = true
		}
	}
	regKinds := make(map[string]bool)
	for _, e := range reg {
		regKinds[e.kind] = true
	}

	var out []Finding

	// 1. Produced sentinels with no classifier mapping.
	keys := make([]string, 0, len(produced))
	for k := range produced {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !mapped[k] {
			out = append(out, findingAt(prodPkg[k], produced[k], "errkind",
				"error sentinel %s can reach the HTTP envelope but errorKind has no errors.Is case for it; it would surface as the catch-all kind", k))
		}
	}

	// 2. Registered kinds with no producing path.
	alive := make(map[string]bool)
	for _, kc := range cases {
		if kc.isDefault || kc.ctxGuard {
			alive[kc.kind] = true
			continue
		}
		for _, s := range kc.sentinels {
			if _, ok := produced[s]; ok {
				alive[kc.kind] = true
				break
			}
		}
	}
	for _, e := range reg {
		if !alive[e.kind] {
			out = append(out, findingAt(p, e.pos, "errkind",
				"registered kind %q has no producing path: no errorKind case returning it tests a produced sentinel", e.kind))
		}
	}

	// 3. Kinds the classifier emits but the registry does not know.
	for _, kc := range cases {
		if !regKinds[kc.kind] {
			out = append(out, findingAt(p, kc.pos, "errkind",
				"errorKind returns kind %q which is not in kindRegistry; register it (the registry is append-only)", kc.kind))
		}
	}
	return out
}

// envelopeScope returns the envelope package and its transitive module
// imports — the packages whose sentinels can flow into the envelope.
func envelopeScope(m *Module, p *Package) []*Package {
	relPkg := make(map[string]*Package, len(m.Pkgs))
	for _, mp := range m.Pkgs {
		relPkg[mp.Rel] = mp
	}
	seen := map[string]bool{p.Rel: true}
	queue := []*Package{p}
	out := []*Package{p}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, imp := range cur.Pkg.Imports() {
			rel, ok := m.relOf(imp)
			if !ok || seen[rel] {
				continue
			}
			seen[rel] = true
			if dep, ok := relPkg[rel]; ok {
				out = append(out, dep)
				queue = append(queue, dep)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	return out
}
