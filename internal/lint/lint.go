// Package lint implements doralint, the repository's static-analysis
// suite. It statically enforces the invariants the simulator otherwise
// guards only at runtime: bit-identical observables across worker
// counts, the golden campaign fingerprint, and the zero-allocation
// quantum loop. The driver walks every package of the module using
// nothing but the standard library (go/parser, go/ast, go/types and a
// source importer), so it runs offline and adds no dependencies.
//
// Five analyzers ship with the suite. One is per-package:
//
//   - maporder: flags `range` over a map in the simulation packages
//     (plus the wire codec and the cluster gateway, whose frame and
//     routing order must be deterministic) when the loop body has
//     order-sensitive effects (writes to anything other than a map or
//     an iteration-local variable, or an early exit) and is not
//     followed by an explicit sort — map iteration order is the
//     classic silent fingerprint-breaker.
//
// Four are interprocedural, running over a module-wide static call
// graph (see callgraph.go and DESIGN.md §12):
//
//   - chanclose: a channel closed in one function while a send on the
//     same channel is reachable from a goroutine spawned outside the
//     closer's call tree — the send-on-closed-channel race.
//   - goroleak: a spawned goroutine that provably blocks forever on a
//     channel operation with no counterpart anywhere in the module.
//   - locksafe: blocking work (channel ops, time.Sleep, Wait, I/O)
//     reachable while a sync.Mutex or sync.RWMutex is held.
//   - detflow: determinism as taint — a simulation-set package reading
//     time.Now, the global RNG, os.Getenv, or the monotonic clock,
//     directly or through a call that transitively reaches one, or
//     importing obslog.
//
// The zero-allocation hot paths are held by the AllocsPerRun guards
// (the root package's *Allocs tests), which run every branch of the
// per-slice kernel, not by a rule.
//
// Any diagnostic can be suppressed with an annotation on the same line
// or the line immediately above:
//
//	//doralint:allow <rule> <reason>
//
// A suppression naming an unknown rule, missing its reason, or
// matching no diagnostic is itself reported (rule "allow"): stale or
// typo'd suppressions are worse than none.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule names, as spelled in diagnostics and //doralint:allow comments.
const (
	RuleMapOrder = "maporder"
	// Interprocedural rules, run over the module call graph.
	RuleChanClose = "chanclose"
	RuleGoroLeak  = "goroleak"
	RuleLockSafe  = "locksafe"
	RuleDetFlow   = "detflow"
	// RuleAllow is the meta-rule reporting malformed or stale
	// //doralint:allow suppressions. It cannot itself be suppressed.
	RuleAllow = "allow"
)

// simPackages are the simulation/observable packages (by import-path
// base name) whose code feeds the campaign fingerprint: detflow and
// maporder apply only inside them.
var simPackages = map[string]bool{
	"soc": true, "cache": true, "membus": true, "dvfs": true,
	"power": true, "thermal": true, "core": true, "workload": true,
	"corun": true, "sim": true, "train": true, "experiment": true,
	"fidelity": true,
}

// mapOrderExtra widens the maporder rule beyond the simulation
// packages. The wire codec is not fingerprint-observable, but a
// map-ordered loop there would emit frames in a per-run order and
// break the byte-equivalence contract with the JSON endpoints; wire
// deliberately stays out of simPackages because the client side keeps
// wall-clock deadlines the detflow rule bans. The cluster gateway is
// held to the same bar: routing and campaign assembly must not depend
// on map iteration order (placement is a pure function of key and live
// set), while its probing and latency measurement keep the wall clocks
// the detflow rule bans.
var mapOrderExtra = map[string]bool{
	"wire":    true,
	"cluster": true,
}

// Diagnostic is one finding, positioned in module-relative file
// coordinates.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the finding as "file:line:col: message [rule]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Analyzer is one named check. Per-package analyzers set Run and see
// one package at a time; whole-module analyzers set RunModule and see
// the call graph. Exactly one of the two is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Analyzers returns the full doralint suite, in reporting order: the
// per-package rules first, then the call-graph rules.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		ChanClose, GoroLeak, LockSafe, DetFlow,
	}
}

// AllRuleNames returns every rule name the suite can emit — each
// analyzer plus the "allow" meta-rule — in reporting order.
func AllRuleNames() []string {
	names := make([]string, 0, len(Analyzers())+1)
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return append(names, RuleAllow)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// MapOrderPackage reports whether the maporder rule covers the pass's
// package: every simulation package plus the wire codec.
func (p *Pass) MapOrderPackage() bool {
	return simPackages[p.Pkg.Base()] || mapOrderExtra[p.Pkg.Base()]
}

// Callee resolves a call expression to the called *types.Func (package
// function or method). It returns nil for builtins, conversions, and
// calls of function-typed variables.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// ModulePass carries one whole-module analyzer's view of the module
// and its call graph. Diagnostics from module analyzers land in the
// same stream as per-package ones; when the module has an active
// package selection, Run filters them to the selected packages after
// the fact (the graph itself is always built over the full module, so
// cross-package reachability never degrades under -pkg).
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module
	Graph    *Graph
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Mod.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// pos renders a position as "file:line" for inclusion in messages.
func (p *ModulePass) pos(pos token.Pos) string {
	pp := p.Mod.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", pp.Filename, pp.Line)
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// inspectWithStack walks f like ast.Inspect while also passing the
// stack of ancestor nodes (outermost first, not including n itself).
func inspectWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// Run executes the analyzers over mod — per-package rules on each
// selected package, call-graph rules on the whole module — applies the
// //doralint:allow suppressions, appends the suppression meta
// diagnostics, and returns the surviving findings sorted by position.
// With an active package selection (Module.Select), per-package rules
// skip unselected packages and module-rule findings outside the
// selection are dropped, but the call graph always spans the full
// module.
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		if !mod.PkgSelected(pkg) {
			continue
		}
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
			}
		}
	}
	needGraph := false
	for _, a := range analyzers {
		if a.RunModule != nil {
			needGraph = true
		}
	}
	if needGraph {
		g := mod.Graph()
		for _, a := range analyzers {
			if a.RunModule != nil {
				a.RunModule(&ModulePass{Analyzer: a, Mod: mod, Graph: g, diags: &diags})
			}
		}
		diags = mod.filterSelected(diags)
	}
	diags = applyAllows(mod, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}
