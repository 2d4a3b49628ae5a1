package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the intra-module static call graph the
// interprocedural analyzers (chanclose, goroleak, locksafe, detflow)
// run on. The graph is deliberately conservative in both directions,
// and the conservatism is part of each rule's contract (DESIGN.md §12):
//
//   - Resolved edges: direct calls to package functions, calls to
//     methods with a concrete receiver, and direct invocations of
//     function literals. These are the only edges; everything the
//     graph claims reachable really is a static call chain.
//   - Dynamic sites: calls through function-typed values and through
//     interface methods are counted but produce no edge. Absence-based
//     rules (goroleak) stay sound because the channels they reason
//     about must be fully visible — a channel that escapes into a
//     function value's closure or an interface is exempt. Taint
//     (detflow) deliberately does not flow through interface dispatch:
//     injecting a clock.Clock is the sanctioned way to give simulation
//     code a time source, and the injection boundary is exactly an
//     interface call.
//
// Per-function summaries record channel operations, selects, lock
// acquisitions, spawn sites, and calls out of the module, so each rule
// is a traversal over prebuilt data instead of a fresh AST walk.

// ChanOpKind classifies one channel operation.
type ChanOpKind int

// Channel operation kinds.
const (
	ChanOpSend ChanOpKind = iota
	ChanOpRecv
	ChanOpClose
	ChanOpRange
)

// ChanOp is one channel operation inside a function body. Ch is the
// operand's object (local variable or struct field) when the operand
// is a plain identifier or field selector, nil otherwise.
type ChanOp struct {
	Kind       ChanOpKind
	Ch         types.Object
	Pos        token.Pos
	InSelect   bool // the op is a select communication clause
	SelDefault bool // ...and that select has a default case
}

// SelectCase is one communication case of a select statement.
type SelectCase struct {
	Send bool
	Ch   types.Object // nil when the channel expression is opaque (a call, index, ...)
	Pos  token.Pos
}

// SelectOp summarizes one select statement.
type SelectOp struct {
	Pos        token.Pos
	HasDefault bool
	Cases      []SelectCase
}

// LockOp is one sync.Mutex / sync.RWMutex acquisition or release on a
// resolvable lock object.
type LockOp struct {
	Obj      types.Object
	Pos      token.Pos
	Unlock   bool
	Reader   bool // RLock/RUnlock
	Deferred bool
}

// Edge is one static call or spawn edge.
type Edge struct {
	To  *FuncInfo
	Pos token.Pos
}

// ExtCall is one call that leaves the module (standard library).
type ExtCall struct {
	Fn  *types.Func
	Pos token.Pos
}

// FuncInfo is one node of the call graph: a declared function or
// method, or a function literal.
type FuncInfo struct {
	Pkg    *Package
	Obj    *types.Func // nil for function literals
	Node   ast.Node    // *ast.FuncDecl or *ast.FuncLit
	Name   string      // display name, e.g. "serve.(*streamConn).enqueue" or "pool.Run.func1"
	Pos    token.Pos
	Parent *FuncInfo // enclosing function for literals

	Calls     []Edge // synchronous static calls into the module
	Spawns    []Edge // go statements with a resolved callee
	Externals []ExtCall
	ChanOps   []ChanOp
	Selects   []SelectOp
	Locks     []LockOp
	Dynamic   int // call sites through function values or interfaces

	blockMemo *string // blockDesc cache; nil = not computed
}

// OpRef locates one channel operation for the module-wide per-channel
// index.
type OpRef struct {
	Fn  *FuncInfo
	Pos token.Pos
}

// ChanInfo aggregates every operation on one channel object across the
// module. Escaped means the channel's value leaves the contexts the
// builder understands (passed to a call, returned, stored outside a
// make-assignment, a parameter, ...), so unseen operations may exist
// and absence-based reasoning must not apply.
type ChanInfo struct {
	Obj     types.Object
	Escaped bool
	Sends   []OpRef
	Recvs   []OpRef
	Closes  []OpRef
	Ranges  []OpRef
}

// Graph is the module-wide call graph plus per-channel indexes.
type Graph struct {
	Mod   *Module
	Funcs []*FuncInfo // deterministic order: package, file, position
	Chans map[types.Object]*ChanInfo

	byObj     map[*types.Func]*FuncInfo
	reachMemo map[reachKey]map[*FuncInfo]bool

	// Stats, surfaced in the JSON report.
	CallEdges    int
	SpawnSites   int
	DynamicSites int
}

type reachKey struct {
	root   *FuncInfo
	spawns bool
}

// BuildGraph constructs the call graph for mod. It is deterministic:
// node and summary order follow package/file/position order.
func BuildGraph(mod *Module) *Graph {
	g := &Graph{
		Mod:       mod,
		Chans:     map[types.Object]*ChanInfo{},
		byObj:     map[*types.Func]*FuncInfo{},
		reachMemo: map[reachKey]map[*FuncInfo]bool{},
	}
	b := &builder{
		g:     g,
		decls: map[*ast.FuncDecl]*FuncInfo{},
		lits:  map[*ast.FuncLit]*FuncInfo{},
		safe:  map[*ast.Ident]bool{},
	}
	// Pass 1: a node per declared function/method, so calls across
	// packages resolve no matter the walk order.
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fi := &FuncInfo{Pkg: pkg, Node: fd, Name: declName(pkg, fd), Pos: fd.Pos()}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					fi.Obj = obj
					g.byObj[obj] = fi
				}
				g.Funcs = append(g.Funcs, fi)
				b.decls[fd] = fi
			}
		}
	}
	// Pass 2: walk every file, attributing operations to the innermost
	// enclosing function and creating literal nodes on the way.
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			b.walkFile(pkg, f)
		}
	}
	b.resolveLitEdges()
	// Pass 3: escape analysis — any use of a channel-typed object in a
	// context pass 2 did not sanction makes the channel escaped.
	for _, pkg := range mod.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if isChanVar(obj) && !b.safe[id] {
				g.chanInfo(obj).Escaped = true
			}
		}
	}
	for _, fi := range g.Funcs {
		g.CallEdges += len(fi.Calls)
		g.SpawnSites += len(fi.Spawns)
		g.DynamicSites += fi.Dynamic
	}
	return g
}

// declName renders a stable display name for a declared function.
func declName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return pkg.Base() + ".(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return pkg.Base() + "." + fd.Name.Name
}

// isChanVar reports whether obj is a variable (local, field, or
// parameter) of channel type.
func isChanVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	_, ok = v.Type().Underlying().(*types.Chan)
	return ok
}

// chanInfo returns (allocating on first use) the module-wide summary
// for one channel object.
func (g *Graph) chanInfo(obj types.Object) *ChanInfo {
	ci := g.Chans[obj]
	if ci == nil {
		ci = &ChanInfo{Obj: obj}
		g.Chans[obj] = ci
	}
	return ci
}

// builder carries the per-walk state of BuildGraph.
type builder struct {
	g     *Graph
	decls map[*ast.FuncDecl]*FuncInfo
	lits  map[*ast.FuncLit]*FuncInfo
	safe  map[*ast.Ident]bool // channel idents seen in sanctioned contexts

	// Direct calls/spawns of function literals are recorded against the
	// literal node and resolved after the walk, because ast.Inspect
	// visits a CallExpr before the FuncLit inside it.
	litEdges []litEdge
}

type litEdge struct {
	from  *FuncInfo
	lit   *ast.FuncLit
	pos   token.Pos
	spawn bool
}

// walkFile populates function summaries for one file.
func (b *builder) walkFile(pkg *Package, f *ast.File) {
	litSeq := map[*FuncInfo]int{}
	inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
		owner := b.owner(stack)
		switch n := n.(type) {
		case *ast.FuncDecl:
			b.markChanSignature(pkg, n.Recv, n.Type)
		case *ast.FuncLit:
			name := pkg.Base() + ".func"
			if owner != nil {
				litSeq[owner]++
				name = fmt.Sprintf("%s.func%d", owner.Name, litSeq[owner])
			}
			fi := &FuncInfo{Pkg: pkg, Node: n, Name: name, Pos: n.Pos(), Parent: owner}
			b.g.Funcs = append(b.g.Funcs, fi)
			b.lits[n] = fi
			b.markChanSignature(pkg, nil, n.Type)
		case *ast.CallExpr:
			if owner != nil {
				b.callExpr(pkg, owner, n, stack)
			}
		case *ast.SendStmt:
			if owner != nil {
				b.chanOp(pkg, owner, ChanOpSend, n.Chan, n.Arrow, n, stack)
			}
		case *ast.UnaryExpr:
			if owner != nil && n.Op == token.ARROW {
				b.chanOp(pkg, owner, ChanOpRecv, n.X, n.OpPos, n, stack)
			}
		case *ast.RangeStmt:
			if owner != nil && isChanExpr(pkg, n.X) {
				b.chanOp(pkg, owner, ChanOpRange, n.X, n.For, n, stack)
			}
		case *ast.SelectStmt:
			if owner != nil {
				b.selectStmt(pkg, owner, n)
			}
		case *ast.AssignStmt:
			b.assignStmt(pkg, n)
		case *ast.ValueSpec:
			b.valueSpec(pkg, n)
		case *ast.CompositeLit:
			b.compositeLit(pkg, n)
		}
		return true
	})
}

// owner returns the FuncInfo for the innermost function enclosing the
// node whose ancestor stack is given, or nil at package level.
func (b *builder) owner(stack []ast.Node) *FuncInfo {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return b.lits[n]
		case *ast.FuncDecl:
			return b.decls[n]
		}
	}
	return nil
}

// markChanSignature escapes every channel-typed receiver, parameter,
// and result: their values alias channels the module cannot see all
// operations on.
func (b *builder) markChanSignature(pkg *Package, recv *ast.FieldList, ft *ast.FuncType) {
	for _, fl := range []*ast.FieldList{recv, ft.Params, ft.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil && isChanVar(obj) {
					b.g.chanInfo(obj).Escaped = true
				}
			}
		}
	}
}

// chanOperand resolves a channel expression to its object: a plain
// identifier or a field selector chain ending in a channel-typed var.
func chanOperand(pkg *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if isChanVar(obj) {
			return obj
		}
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[x.Sel]; isChanVar(obj) {
			return obj
		}
	}
	return nil
}

// isChanExpr reports whether e's static type is a channel.
func isChanExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// markSafe records that the identifier naming a channel in e was seen
// in a sanctioned context (the escape pass skips it).
func (b *builder) markSafe(e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		b.safe[x] = true
	case *ast.SelectorExpr:
		b.safe[x.Sel] = true
	}
}

// chanOp records one channel operation, marking its operand safe and
// noting whether it sits inside a select (and whether that select has
// a default, i.e. cannot block).
func (b *builder) chanOp(pkg *Package, owner *FuncInfo, kind ChanOpKind, operand ast.Expr, pos token.Pos, n ast.Node, stack []ast.Node) {
	b.markSafe(operand)
	obj := chanOperand(pkg, operand)
	inSelect, selDefault := selectContext(n, stack)
	owner.ChanOps = append(owner.ChanOps, ChanOp{
		Kind: kind, Ch: obj, Pos: pos, InSelect: inSelect, SelDefault: selDefault,
	})
	if obj == nil {
		return
	}
	ci := b.g.chanInfo(obj)
	ref := OpRef{Fn: owner, Pos: pos}
	switch kind {
	case ChanOpSend:
		ci.Sends = append(ci.Sends, ref)
	case ChanOpRecv:
		ci.Recvs = append(ci.Recvs, ref)
	case ChanOpClose:
		ci.Closes = append(ci.Closes, ref)
	case ChanOpRange:
		ci.Ranges = append(ci.Ranges, ref)
	}
}

// selectContext reports whether n is a communication clause of a
// select statement (not merely nested in a case body), and whether
// that select has a default case. The op may be wrapped in an
// ExprStmt, AssignStmt, or parentheses inside the clause.
func selectContext(n ast.Node, stack []ast.Node) (inSelect, hasDefault bool) {
	cur := n
	for i := len(stack) - 1; i >= 1; i-- {
		switch s := stack[i].(type) {
		case *ast.ExprStmt, *ast.AssignStmt, *ast.ParenExpr:
			cur = s
		case *ast.CommClause:
			if s.Comm != cur {
				return false, false
			}
			// The clause sits inside the select's Body block:
			// [..., SelectStmt, BlockStmt, CommClause, ...].
			for j := i - 1; j >= 0; j-- {
				if sel, ok := stack[j].(*ast.SelectStmt); ok {
					return true, selectHasDefault(sel)
				}
				if _, ok := stack[j].(*ast.BlockStmt); !ok {
					break
				}
			}
			return false, false
		default:
			return false, false
		}
	}
	return false, false
}

// selectHasDefault reports whether sel has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// selectStmt summarizes a select's communication cases.
func (b *builder) selectStmt(pkg *Package, owner *FuncInfo, sel *ast.SelectStmt) {
	op := SelectOp{Pos: sel.Select, HasDefault: selectHasDefault(sel)}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		sc := SelectCase{Pos: cc.Pos()}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			sc.Send = true
			sc.Ch = chanOperand(pkg, comm.Chan)
		case *ast.ExprStmt:
			if ue, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				sc.Ch = chanOperand(pkg, ue.X)
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if ue, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					sc.Ch = chanOperand(pkg, ue.X)
				}
			}
		}
		op.Cases = append(op.Cases, sc)
	}
	owner.Selects = append(owner.Selects, op)
}

// callExpr classifies one call: builtin (close/len/cap on channels),
// conversion, static module call/spawn, external call, or dynamic.
func (b *builder) callExpr(pkg *Package, owner *FuncInfo, call *ast.CallExpr, stack []ast.Node) {
	fun := ast.Unparen(call.Fun)
	// Builtins: close is a channel op; len/cap/make sanction their
	// channel operands without being calls.
	if id, ok := fun.(*ast.Ident); ok {
		if bi, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch bi.Name() {
			case "close":
				if len(call.Args) == 1 {
					b.chanOp(pkg, owner, ChanOpClose, call.Args[0], call.Pos(), call, stack)
				}
			case "len", "cap":
				if len(call.Args) == 1 && isChanExpr(pkg, call.Args[0]) {
					b.markSafe(call.Args[0])
				}
			}
			return
		}
	}
	// Type conversions are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	spawn := isGoCall(call, stack)
	pos := call.Pos()
	if lit, ok := fun.(*ast.FuncLit); ok {
		b.litEdges = append(b.litEdges, litEdge{from: owner, lit: lit, pos: pos, spawn: spawn})
		return
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		owner.Dynamic++
		return
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		// A function-typed variable, field, or parameter.
		owner.Dynamic++
		return
	}
	// A call into a generic function or a method of a generic type
	// uses an instantiated object; its declaration's node is keyed by
	// the origin.
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		// Interface dispatch: no edge, by design.
		owner.Dynamic++
		return
	}
	if to, ok := b.g.byObj[fn]; ok {
		e := Edge{To: to, Pos: pos}
		if spawn {
			owner.Spawns = append(owner.Spawns, e)
		} else {
			owner.Calls = append(owner.Calls, e)
		}
		b.recordLockOp(pkg, owner, fn, fun, call, stack)
		return
	}
	if fn.Pkg() != nil && fn.Pkg() != pkg.Types && b.g.byObj[fn] == nil && isModulePath(b.g.Mod, fn.Pkg().Path()) {
		// A module function with no body node (should not happen for
		// concrete functions); treat as dynamic rather than external.
		owner.Dynamic++
		return
	}
	owner.Externals = append(owner.Externals, ExtCall{Fn: fn, Pos: pos})
	b.recordLockOp(pkg, owner, fn, fun, call, stack)
}

// isModulePath reports whether path names a package inside mod.
func isModulePath(mod *Module, path string) bool {
	return path == mod.Path || strings.HasPrefix(path, mod.Path+"/")
}

// isGoCall reports whether call is the operand of a go statement.
func isGoCall(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	gs, ok := stack[len(stack)-1].(*ast.GoStmt)
	return ok && gs.Call == call
}

// recordLockOp notes Lock/Unlock-family calls on sync.Mutex and
// sync.RWMutex receivers that resolve to a variable or field, so
// locksafe can compute held regions.
func (b *builder) recordLockOp(pkg *Package, owner *FuncInfo, fn *types.Func, fun ast.Expr, call *ast.CallExpr, stack []ast.Node) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	name := fn.Name()
	var unlock, reader bool
	switch name {
	case "Lock":
	case "RLock":
		reader = true
	case "Unlock":
		unlock = true
	case "RUnlock":
		unlock, reader = true, true
	default:
		return
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := lockOperand(pkg, sel.X)
	if obj == nil {
		return
	}
	deferred := false
	if len(stack) > 0 {
		if ds, ok := stack[len(stack)-1].(*ast.DeferStmt); ok && ds.Call == call {
			deferred = true
		}
	}
	owner.Locks = append(owner.Locks, LockOp{
		Obj: obj, Pos: call.Pos(), Unlock: unlock, Reader: reader, Deferred: deferred,
	})
}

// lockOperand resolves the receiver of a Lock/Unlock call to the
// variable or field holding the mutex. When the method is promoted
// from an embedded Mutex, the enclosing struct variable is the
// identity — good enough, since held regions are per-function.
func lockOperand(pkg *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[x]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[x.Sel]
	}
	return nil
}

// assignStmt sanctions channel assignments whose source is a make call
// or nil; any other source means the object aliases an unseen channel,
// so it escapes.
func (b *builder) assignStmt(pkg *Package, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		for _, lhs := range n.Lhs {
			if obj := chanOperand(pkg, lhs); obj != nil {
				b.g.chanInfo(obj).Escaped = true
				b.markSafe(lhs)
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		obj := chanOperand(pkg, lhs)
		if obj == nil {
			continue
		}
		if isMakeChan(pkg, n.Rhs[i]) || isNilExpr(pkg, n.Rhs[i]) {
			b.markSafe(lhs)
			continue
		}
		b.g.chanInfo(obj).Escaped = true
		b.markSafe(lhs)
	}
}

// valueSpec handles `var ch chan T` (nil, safe) and
// `var ch = make(chan T)` (safe) versus initialization from anything
// else (escaped).
func (b *builder) valueSpec(pkg *Package, n *ast.ValueSpec) {
	for i, name := range n.Names {
		obj := pkg.Info.Defs[name]
		if !isChanVar(obj) {
			continue
		}
		if len(n.Values) == 0 {
			continue // nil channel: fully visible
		}
		if i < len(n.Values) && (isMakeChan(pkg, n.Values[i]) || isNilExpr(pkg, n.Values[i])) {
			continue
		}
		b.g.chanInfo(obj).Escaped = true
	}
}

// compositeLit sanctions `T{ch: make(chan X)}` field initialization
// and escapes channel fields initialized from anything else.
func (b *builder) compositeLit(pkg *Package, n *ast.CompositeLit) {
	t := pkg.Info.TypeOf(n)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range n.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pkg.Info.Uses[key]
			if !isChanVar(obj) {
				continue
			}
			b.safe[key] = true
			if !isMakeChan(pkg, kv.Value) && !isNilExpr(pkg, kv.Value) {
				b.g.chanInfo(obj).Escaped = true
			}
			continue
		}
		// Positional literal.
		if i < st.NumFields() && isChanVar(st.Field(i)) && !isMakeChan(pkg, elt) && !isNilExpr(pkg, elt) {
			b.g.chanInfo(st.Field(i)).Escaped = true
		}
	}
}

// isMakeChan reports whether e is make(chan ...).
func isMakeChan(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && bi.Name() == "make" && isChanExpr(pkg, call)
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// resolveLitEdges converts the deferred literal-call records into
// edges, now that every literal has a node.
func (b *builder) resolveLitEdges() {
	for _, le := range b.litEdges {
		to := b.lits[le.lit]
		if to == nil {
			continue
		}
		e := Edge{To: to, Pos: le.pos}
		if le.spawn {
			le.from.Spawns = append(le.from.Spawns, e)
		} else {
			le.from.Calls = append(le.from.Calls, e)
		}
	}
}

// reach returns the set of functions reachable from root over static
// call edges, following spawn edges too when spawns is true. root is
// included. Results are memoized.
func (g *Graph) reach(root *FuncInfo, spawns bool) map[*FuncInfo]bool {
	key := reachKey{root, spawns}
	if r, ok := g.reachMemo[key]; ok {
		return r
	}
	r := map[*FuncInfo]bool{root: true}
	work := []*FuncInfo{root}
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		edges := fi.Calls
		if spawns {
			edges = append(append([]Edge{}, fi.Calls...), fi.Spawns...)
		}
		for _, e := range edges {
			if !r[e.To] {
				r[e.To] = true
				work = append(work, e.To)
			}
		}
	}
	g.reachMemo[key] = r
	return r
}

// blockingExternal describes why a call out of the module can block —
// channel-free blocking primitives (time.Sleep, WaitGroup.Wait) and a
// curated list of I/O entry points. Interface methods never get here
// (they are dynamic sites), so io.Writer.Write and friends stay
// opaque by design.
func blockingExternal(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	name := fn.Name()
	qualified := pkg.Name() + "." + name
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefNamed(sig.Recv().Type()); ok {
			qualified = pkg.Name() + "." + named + "." + name
		}
	}
	switch pkg.Path() {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if name == "Wait" { // (*WaitGroup).Wait, (*Cond).Wait
			return qualified
		}
	case "os":
		if osBlocking[name] {
			return qualified
		}
	case "net", "net/http", "os/exec":
		return qualified
	case "bufio":
		if name == "Flush" || strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Write") || name == "Peek" {
			return qualified
		}
	case "io":
		if strings.HasPrefix(name, "Copy") || strings.HasPrefix(name, "Read") || name == "WriteString" || name == "Pipe" {
			return qualified
		}
	}
	return ""
}

// osBlocking are the os package functions and File methods that reach
// the filesystem.
var osBlocking = map[string]bool{
	"Create": true, "CreateTemp": true, "Open": true, "OpenFile": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "Truncate": true, "Chmod": true,
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Close": true, "Sync": true,
}

// derefNamed returns the name of t's (possibly pointed-to) named type.
func derefNamed(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name(), true
	}
	return "", false
}

// blockDesc returns a description of the first potentially blocking
// operation reachable from fi over synchronous call edges ("" when
// none): a channel op outside a defaulted select, a defaultless
// select, a blocking external call, or — transitively — a call to a
// function that blocks. Cycles resolve to non-blocking; the in-cycle
// members that matter are found from their own local ops.
func (g *Graph) blockDesc(fi *FuncInfo) string {
	if fi.blockMemo != nil {
		return *fi.blockMemo
	}
	empty := ""
	fi.blockMemo = &empty // cycle guard
	desc := ""
	for _, op := range fi.ChanOps {
		if op.InSelect || op.Kind == ChanOpClose {
			continue
		}
		desc = chanOpDesc(op)
		break
	}
	if desc == "" {
		for _, sel := range fi.Selects {
			if !sel.HasDefault {
				desc = "a select with no default case"
				break
			}
		}
	}
	if desc == "" {
		for _, ext := range fi.Externals {
			if d := blockingExternal(ext.Fn); d != "" {
				desc = d
				break
			}
		}
	}
	if desc == "" {
		for _, e := range fi.Calls {
			if d := g.blockDesc(e.To); d != "" {
				desc = e.To.Name + " → " + d
				break
			}
		}
	}
	fi.blockMemo = &desc
	return desc
}

// chanOpDesc renders one channel operation for diagnostics.
func chanOpDesc(op ChanOp) string {
	name := ""
	if op.Ch != nil {
		name = fmt.Sprintf(" on channel %q", op.Ch.Name())
	}
	switch op.Kind {
	case ChanOpSend:
		return "a channel send" + name
	case ChanOpRecv:
		return "a channel receive" + name
	case ChanOpRange:
		return "a range" + name
	case ChanOpClose:
		return "close" + name
	}
	return "a channel operation"
}
