package lint

import (
	"go/ast"
	"regexp"
)

// lockedField enforces documented lock discipline: a struct field whose
// comment says "guarded by <mu>" (where <mu> names a sibling field)
// may only be touched through the receiver in methods that lock that
// sibling — a recv.mu.Lock() or recv.mu.RLock() call somewhere in the
// body. Methods whose name ends in "Locked" are exempt by convention:
// that suffix is the project's contract that the caller already holds
// the lock (see Manager.victimLocked).
//
// The check is method-granular, not flow-sensitive: it proves the lock
// is taken somewhere in the method, not that it is held at the access.
// That is deliberately cheap and catches the real failure mode — a new
// method that forgets the mutex entirely.
type lockedField struct{}

func (lockedField) ID() string { return "lockedfield" }

func (lockedField) Doc() string {
	return "fields documented \"guarded by <mu>\" must be accessed under recv.<mu>.Lock (or from *Locked methods)"
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

func (r lockedField) Check(p *Package) []Finding {
	// structName → guarded field name → mutex field name.
	guards := make(map[string]map[string]string)
	for _, file := range p.Files {
		collectGuards(file, guards)
	}
	if len(guards) == 0 {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recvName, structName := receiver(fn)
			if recvName == "" || guards[structName] == nil {
				continue
			}
			if isLockedSuffixed(fn.Name.Name) {
				continue
			}
			out = append(out, r.checkMethod(p, fn, recvName, guards[structName])...)
		}
	}
	return out
}

// collectGuards scans struct declarations for "guarded by <field>"
// comments whose target resolves to a sibling field. Comments naming
// anything else (another struct's lock, prose) are out of the rule's
// reach and ignored.
func collectGuards(file *ast.File, guards map[string]map[string]string) {
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		siblings := make(map[string]bool)
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				siblings[name.Name] = true
			}
		}
		for _, f := range st.Fields.List {
			mu := guardTarget(f)
			if mu == "" || !siblings[mu] {
				continue
			}
			for _, name := range f.Names {
				if name.Name == mu {
					continue
				}
				if guards[ts.Name.Name] == nil {
					guards[ts.Name.Name] = make(map[string]string)
				}
				guards[ts.Name.Name][name.Name] = mu
			}
		}
		return true
	})
}

// guardTarget extracts the mutex name from a field's doc or trailing
// comment, or "".
func guardTarget(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkMethod reports guarded-field accesses in a method that never
// locks the guarding mutex.
func (r lockedField) checkMethod(p *Package, fn *ast.FuncDecl, recvName string, guarded map[string]string) []Finding {
	locked := make(map[string]bool) // mutex fields this method locks
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := muSel.X.(*ast.Ident); ok && id.Name == recvName {
			locked[muSel.Sel.Name] = true
		}
		return true
	})
	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != recvName {
			return true
		}
		mu, isGuarded := guarded[sel.Sel.Name]
		if !isGuarded || locked[mu] {
			return true
		}
		out = append(out, p.finding(r.ID(), sel,
			"%s.%s is guarded by %s but %s does not lock it; take %s.%s.Lock or give the method a Locked suffix",
			recvName, sel.Sel.Name, mu, fn.Name.Name, recvName, mu))
		return true
	})
	return out
}

// receiver returns the receiver's name and (pointer-stripped) type
// name, or "" when anonymous.
func receiver(fn *ast.FuncDecl) (recvName, structName string) {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return "", ""
	}
	recvName = fn.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return "", ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return recvName, id.Name
	}
	return "", ""
}

func isLockedSuffixed(name string) bool {
	const suffix = "Locked"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
