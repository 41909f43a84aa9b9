package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// lockClass identifies a mutex for ordering purposes: "rel|Type.field"
// for a struct field, "rel|name" for a package-level var, and
// "rel|local:name" for a function-local variable. Same-named locals in
// one package merge into one class — an accepted over-approximation.
type lockClass string

// display renders a class for findings: internal/service:Manager.mu.
func (c lockClass) display() string {
	s := string(c)
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			if i == 0 {
				return s[1:]
			}
			return s[:i] + ":" + s[i+1:]
		}
	}
	return s
}

// acquireSite is one blocking Lock/RLock call.
type acquireSite struct {
	class lockClass
	pos   token.Pos
	held  []lockClass // classes already held, in acquisition order
	rlock bool
}

// blockSite is one potentially blocking channel or sync operation.
type blockSite struct {
	pos  token.Pos
	held []lockClass
	what string
}

// ctxSite is one context.Background()/TODO() manufacture.
type ctxSite struct {
	pos  token.Pos
	name string
}

// spawnSite is one `go` statement.
type spawnSite struct {
	pos    token.Pos
	target *FuncNode    // spawned literal or resolved declared callee
	doneOn types.Object // WaitGroup the spawned body calls Done() on
}

// funcSummary is the per-function fact base the interprocedural rules
// consume.
type funcSummary struct {
	acquires    []acquireSite
	blocks      []blockSite
	ctxMakes    []ctxSite
	spawns      []spawnSite
	waitsOn     []types.Object // WaitGroups this function Wait()s on
	hasCtxParam bool
}

// analyzeFunc walks n's body once, recording its summary and outgoing
// edges. Function literals encountered on the way become their own
// nodes and are analyzed eagerly.
func analyzeFunc(m *Module, n *FuncNode) {
	if n.sum != nil {
		return
	}
	n.sum = &funcSummary{}
	var body *ast.BlockStmt
	var ft *ast.FuncType
	if n.Decl != nil {
		body, ft = n.Decl.Body, n.Decl.Type
	} else {
		body, ft = n.Lit.Body, n.Lit.Type
	}
	n.sum.hasCtxParam = hasContextParam(n.Pkg, ft)
	if body == nil {
		return
	}
	w := &bodyWalker{m: m, n: n, p: n.Pkg}
	w.stmts(body.List)
}

// hasContextParam reports whether the signature takes a
// context.Context parameter.
func hasContextParam(p *Package, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if tv, ok := p.Info.Types[f.Type]; ok && tv.Type != nil && tv.Type.String() == "context.Context" {
			return true
		}
	}
	return false
}

// bodyWalker tracks the held lock set through one function body. It
// walks statements in order; branches run on copies and merge by
// intersection of the non-terminating arms, so only locks held on
// every fall-through path stay in the set.
type bodyWalker struct {
	m          *Module
	n          *FuncNode
	p          *Package
	held       []lockClass
	selectComm bool // suppress blocking records for a select's own comm op
}

func snapshot(held []lockClass) []lockClass {
	if len(held) == 0 {
		return nil
	}
	out := make([]lockClass, len(held))
	copy(out, held)
	return out
}

func containsClass(held []lockClass, c lockClass) bool {
	for _, h := range held {
		if h == c {
			return true
		}
	}
	return false
}

// hold appends copy-on-write so sibling branch snapshots never share a
// backing array with the live set.
func (w *bodyWalker) hold(c lockClass) {
	if containsClass(w.held, c) {
		return
	}
	w.held = append(snapshot(w.held), c)
}

func (w *bodyWalker) release(c lockClass) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == c {
			out := snapshot(w.held[:i])
			out = append(out, w.held[i+1:]...)
			w.held = out
			return
		}
	}
}

func (w *bodyWalker) block(pos token.Pos, what string) {
	w.n.sum.blocks = append(w.n.sum.blocks, blockSite{pos: pos, held: snapshot(w.held), what: what})
}

func (w *bodyWalker) edgeTo(to *FuncNode, kind EdgeKind, pos token.Pos) {
	w.n.Edges = append(w.n.Edges, &Edge{From: w.n, To: to, Kind: kind, Pos: pos, Held: snapshot(w.held)})
}

func (w *bodyWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *bodyWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		if !w.selectComm {
			w.block(s.Arrow, "channel send")
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.DeferStmt:
		w.call(s.Call, EdgeDefer)
	case *ast.GoStmt:
		w.goStmt(s)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		arms := [][]ast.Stmt{s.Body.List}
		switch e := s.Else.(type) {
		case nil:
			arms = append(arms, nil) // implicit fall-through arm
		case *ast.BlockStmt:
			arms = append(arms, e.List)
		default:
			arms = append(arms, []ast.Stmt{s.Else})
		}
		w.branches(arms)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.loopBody(func() {
			w.stmts(s.Body.List)
			if s.Post != nil {
				w.stmt(s.Post)
			}
		})
	case *ast.RangeStmt:
		w.expr(s.X)
		if tv, ok := w.p.Info.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block(s.For, "range over channel")
			}
		}
		w.loopBody(func() { w.stmts(s.Body.List) })
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.caseArms(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		w.caseArms(s.Body)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block(s.Select, "select without default")
		}
		var arms [][]ast.Stmt
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil {
				w.selectComm = true
				w.stmt(cc.Comm)
				w.selectComm = false
			}
			arms = append(arms, cc.Body)
		}
		w.branches(arms)
	}
}

// caseArms walks a switch body: case expressions in order, then the
// arm bodies as branches. A switch without a default may match no arm,
// so the entry set joins the merge.
func (w *bodyWalker) caseArms(body *ast.BlockStmt) {
	var arms [][]ast.Stmt
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.expr(e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		arms = append(arms, cc.Body)
	}
	if !hasDefault {
		arms = append(arms, nil)
	}
	w.branches(arms)
}

// branches runs each arm on a copy of the held set and merges the
// results: the intersection of every arm that can fall through. Arms
// ending in return/branch/panic divert control and drop out of the
// merge; if every arm diverts, the code after is unreachable and the
// entry set stands.
func (w *bodyWalker) branches(arms [][]ast.Stmt) {
	entry := snapshot(w.held)
	var merged [][]lockClass
	for _, arm := range arms {
		w.held = snapshot(entry)
		w.stmts(arm)
		if !terminates(arm) {
			merged = append(merged, snapshot(w.held))
		}
	}
	if len(merged) == 0 {
		w.held = entry
		return
	}
	w.held = intersectOrdered(merged)
}

// loopBody walks the body on a copy and intersects with the entry set:
// the loop may run zero times, so only locks held both before and
// after an iteration survive.
func (w *bodyWalker) loopBody(walk func()) {
	entry := snapshot(w.held)
	walk()
	w.held = intersectOrdered([][]lockClass{entry, w.held})
}

func terminates(arm []ast.Stmt) bool {
	if len(arm) == 0 {
		return false
	}
	switch s := arm[len(arm)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := unparen(c.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func intersectOrdered(sets [][]lockClass) []lockClass {
	out := sets[0]
	for _, s := range sets[1:] {
		var keep []lockClass
		for _, c := range out {
			if containsClass(s, c) {
				keep = append(keep, c)
			}
		}
		out = keep
	}
	return out
}

func (w *bodyWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, EdgeCall)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW && !w.selectComm {
			w.expr(e.X)
			w.block(e.OpPos, "channel receive")
			return
		}
		w.expr(e.X)
	case *ast.FuncLit:
		ln := w.m.litNode(w.n, e)
		w.edgeTo(ln, EdgeCall, e.Pos())
		analyzeFunc(w.m, ln)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		// A module method referenced as a value may be called later;
		// over-approximate it as a call at the reference.
		if fn, ok := w.p.Info.Uses[e.Sel].(*types.Func); ok {
			if n := w.m.nodeFor(fn); n != nil {
				w.edgeTo(n, EdgeCall, e.Pos())
			}
		}
		w.expr(e.X)
	case *ast.Ident:
		if fn, ok := w.p.Info.Uses[e].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				if n := w.m.nodeFor(fn); n != nil {
					w.edgeTo(n, EdgeCall, e.Pos())
				}
			}
		}
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
		for _, i := range e.Indices {
			w.expr(i)
		}
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	}
}

func (w *bodyWalker) call(c *ast.CallExpr, kind EdgeKind) {
	fun := unparen(c.Fun)
	if tv, ok := w.p.Info.Types[c.Fun]; ok && tv.IsType() { // conversion
		for _, a := range c.Args {
			w.expr(a)
		}
		return
	}
	if w.syncOp(c, kind) {
		return
	}
	if path, name, ok := w.p.pkgSel(fun); ok && path == "context" && (name == "Background" || name == "TODO") {
		w.n.sum.ctxMakes = append(w.n.sum.ctxMakes, ctxSite{pos: c.Pos(), name: name})
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := w.p.Info.Uses[id].(*types.Builtin); isB {
			for _, a := range c.Args {
				w.expr(a)
			}
			return
		}
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		ln := w.m.litNode(w.n, fun)
		w.edgeTo(ln, kind, c.Pos())
		analyzeFunc(w.m, ln)
	case *ast.Ident:
		if fn, ok := w.p.Info.Uses[fun].(*types.Func); ok {
			if n := w.m.nodeFor(fn); n != nil {
				w.edgeTo(n, kind, c.Pos())
			}
		}
	case *ast.SelectorExpr:
		w.methodCall(fun, kind, c)
		w.expr(fun.X)
	default:
		w.expr(fun)
	}
	for _, a := range c.Args {
		w.expr(a)
	}
}

// methodCall resolves a selector call: a statically known function or
// method directly, an interface method CHA-style over module methods
// with the same name and arity. Interface calls into stdlib types are
// left unresolved rather than matched against everything.
func (w *bodyWalker) methodCall(sel *ast.SelectorExpr, kind EdgeKind, c *ast.CallExpr) {
	fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	if n := w.m.nodeFor(fn); n != nil {
		w.edgeTo(n, kind, c.Pos())
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); !isIface {
		return
	}
	if _, inModule := w.m.relOf(fn.Pkg()); !inModule {
		return
	}
	for _, impl := range w.m.implementers(fn.Name(), sig) {
		w.edgeTo(impl, kind, c.Pos())
	}
}

// syncOp recognizes and consumes calls to sync primitives: mutex
// lock/unlock mutate the held set, WaitGroup.Wait and Cond.Wait record
// blocking sites. TryLock/TryRLock are deliberately untracked: success
// is conditional, and DESIGN §6 explicitly allows TryLock under the
// manager mutex.
func (w *bodyWalker) syncOp(c *ast.CallExpr, kind EdgeKind) bool {
	sel, ok := unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	switch namedName(sig.Recv().Type()) {
	case "Mutex", "RWMutex":
		class := w.lockClassOf(sel.X)
		switch fn.Name() {
		case "Lock", "RLock":
			w.n.sum.acquires = append(w.n.sum.acquires, acquireSite{
				class: class, pos: c.Pos(), held: snapshot(w.held), rlock: fn.Name() == "RLock",
			})
			w.hold(class)
		case "Unlock", "RUnlock":
			if kind != EdgeDefer { // defer Unlock keeps the lock to return
				w.release(class)
			}
		}
		return true
	case "WaitGroup":
		if fn.Name() == "Wait" {
			w.block(c.Pos(), "sync.WaitGroup.Wait")
			if obj := w.objOf(sel.X); obj != nil {
				w.n.sum.waitsOn = append(w.n.sum.waitsOn, obj)
			}
		}
		return true
	case "Cond":
		if fn.Name() == "Wait" {
			w.block(c.Pos(), "sync.Cond.Wait")
		}
		return true
	}
	return false
}

// goStmt records the spawn, an EdgeGo edge, and — for goroleak — the
// WaitGroup the spawned body calls Done() on, if any.
func (w *bodyWalker) goStmt(s *ast.GoStmt) {
	c := s.Call
	var target *FuncNode
	var doneOn types.Object
	switch fun := unparen(c.Fun).(type) {
	case *ast.FuncLit:
		ln := w.m.litNode(w.n, fun)
		w.edgeTo(ln, EdgeGo, s.Pos())
		analyzeFunc(w.m, ln)
		target = ln
		doneOn = doneWitness(w.p, fun.Body)
	case *ast.Ident:
		if fn, ok := w.p.Info.Uses[fun].(*types.Func); ok {
			if n := w.m.nodeFor(fn); n != nil {
				w.edgeTo(n, EdgeGo, s.Pos())
				target = n
				if n.Decl != nil && n.Decl.Body != nil {
					doneOn = doneWitness(n.Pkg, n.Decl.Body)
				}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := w.p.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := w.m.nodeFor(fn); n != nil {
				w.edgeTo(n, EdgeGo, s.Pos())
				target = n
				if n.Decl != nil && n.Decl.Body != nil {
					doneOn = doneWitness(n.Pkg, n.Decl.Body)
				}
			}
		}
		w.expr(fun.X)
	}
	for _, a := range c.Args {
		w.expr(a)
	}
	w.n.sum.spawns = append(w.n.sum.spawns, spawnSite{pos: s.Pos(), target: target, doneOn: doneOn})
}

// doneWitness finds the WaitGroup object a body calls Done() on.
func doneWitness(p *Package, body ast.Node) types.Object {
	var found types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(c.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		found = objOfIn(p, sel.X)
		return true
	})
	return found
}

// objOf resolves the variable or field behind a mutex/WaitGroup
// operand expression.
func (w *bodyWalker) objOf(e ast.Expr) types.Object { return objOfIn(w.p, e) }

func objOfIn(p *Package, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[e]; ok {
			return s.Obj()
		}
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// lockClassOf derives the ordering class of a mutex operand.
func (w *bodyWalker) lockClassOf(x ast.Expr) lockClass {
	x = unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if pn, ok := w.p.Info.Uses[id].(*types.PkgName); ok {
				rel, ok := w.m.relOf(pn.Imported())
				if !ok {
					rel = pn.Imported().Path()
				}
				return lockClass(rel + "|" + x.Sel.Name)
			}
		}
		if tv, ok := w.p.Info.Types[x.X]; ok && tv.Type != nil {
			if name := namedName(tv.Type); name != "" {
				rel := w.p.Rel
				if named := namedOf(tv.Type); named != nil && named.Obj().Pkg() != nil {
					if r, ok := w.m.relOf(named.Obj().Pkg()); ok {
						rel = r
					}
				}
				return lockClass(rel + "|" + name + "." + x.Sel.Name)
			}
		}
	case *ast.Ident:
		obj := w.p.Info.Uses[x]
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			rel := w.p.Rel
			if r, ok := w.m.relOf(obj.Pkg()); ok {
				rel = r
			}
			return lockClass(rel + "|" + x.Name)
		}
		return lockClass(w.p.Rel + "|local:" + x.Name)
	}
	return lockClass(fmt.Sprintf("%s|anon@%d", w.p.Rel, x.Pos()))
}
