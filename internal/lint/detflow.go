package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DetFlow bans nondeterministic inputs — wall clock, global RNG,
// process environment, the monotonic side of internal/clock — from the
// simulation/observable packages, treating determinism as taint. Every
// observable the campaign fingerprint hashes must be a pure function
// of the seeded configuration; one stray time.Now or rand.Int breaks
// bit-identical reruns silently until a golden test happens to catch
// it.
//
// It marks every module function that (transitively, over static call
// and spawn edges) reaches a nondeterministic input — time.Now/Since/
// Until, a non-seeding math/rand package function, os.Getenv/
// LookupEnv/Environ, or a clock.Mono* entry point — and reports:
//
//   - each direct call to a source inside a simulation-set function
//     (the zero-hop case);
//   - each call from a simulation-set function to a tainted function
//     outside the set, with the chain to the source, so a read
//     laundered through a helper package is caught at the boundary.
//
// A package's initializer node (the calls its package-level variable
// declarations make) counts as a function of its package.
//
// Two entry points carry no call edge for the taint to follow, and are
// banned by name inside the set: importing obslog (whose whole point
// is wall-clock timestamps and process-global sinks), and referencing
// a clock.Mono* type or interface method (the monotonic clock measures
// real elapsed time; the sim clock advances only by simulated quanta).
//
// Taint deliberately does not flow through interface dispatch or
// function values: injecting a clock.Clock implementation is the
// sanctioned seam for giving simulation code a time source, and that
// seam is exactly an interface call. Seeded rand.New(rand.NewSource(
// seed)) chains stay clean because New/NewSource/NewZipf are not
// sources and *rand.Rand methods are deterministic state machines.
var DetFlow = &Analyzer{
	Name: RuleDetFlow,
	Doc: "bans time.Now/Since/Until, top-level math/rand calls, os.Getenv, " +
		"obslog imports and clock.Mono* inside simulation packages, directly " +
		"or through calls that transitively reach them; seeded " +
		"rand.New(rand.NewSource(seed)) stays legal",
	RunModule: runDetFlow,
}

// randAllowed are the math/rand package-level functions that stay
// legal: they build seeded generators instead of consulting the global
// source.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// timeBanned are the time package functions that read the wall clock.
var timeBanned = map[string]bool{"Now": true, "Since": true, "Until": true}

// osBanned are the os package functions that read the process
// environment.
var osBanned = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// nondetSource describes the nondeterministic input a call to fn
// reads — "time.Now", "os.Getenv", "rand.Intn (process-global RNG)" —
// or returns "". Methods — e.g. (*rand.Rand).Int63 on a seeded
// generator — are deterministic state machines and never count.
func nondetSource(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	name := fn.Pkg().Name() + "." + fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if timeBanned[fn.Name()] {
			return name
		}
	case "math/rand", "math/rand/v2":
		if !randAllowed[fn.Name()] {
			return name + " (process-global RNG)"
		}
	case "os":
		if osBanned[fn.Name()] {
			return name
		}
	}
	return ""
}

// monoClockIdent reports whether name is part of the monotonic side
// of internal/clock (MonoTime, MonoClock, Mono, MonoOr, MonoSince,
// ...). The deterministic Clock/Manual side stays legal.
func monoClockIdent(name string) bool {
	return strings.HasPrefix(name, "Mono")
}

// taintMark records how a function became tainted: either it is a
// source itself (desc set, self true for functions that ARE the
// nondeterminism, like clock.Mono*), or it calls the next tainted
// function.
type taintMark struct {
	desc string
	self bool
	next *FuncInfo
}

func runDetFlow(pass *ModulePass) {
	g := pass.Graph
	tainted := map[*FuncInfo]*taintMark{}
	for _, fi := range g.Funcs {
		if desc := detSource(fi); desc != "" {
			tainted[fi] = &taintMark{desc: desc}
		} else if fi.Obj != nil && fi.Pkg.Base() == "clock" && monoClockIdent(fi.Obj.Name()) {
			// The monotonic clock entry points are sources by identity,
			// whatever their bodies look like.
			tainted[fi] = &taintMark{desc: "monotonic wall clock", self: true}
		}
	}
	// Propagate to a fixpoint over call and spawn edges.
	for changed := true; changed; {
		changed = false
		for _, fi := range g.Funcs {
			if tainted[fi] != nil {
				continue
			}
			for _, e := range append(append([]Edge{}, fi.Calls...), fi.Spawns...) {
				if tainted[e.To] != nil {
					tainted[fi] = &taintMark{next: e.To}
					changed = true
					break
				}
			}
		}
	}
	for _, fi := range g.Funcs {
		if !simPackages[fi.Pkg.Base()] {
			continue
		}
		// Zero hops: the simulation-set function reads the source
		// itself.
		for _, ext := range fi.Externals {
			reportNondetCall(pass, ext.Pos, ext.Fn, fi.Pkg.Base())
		}
		// Report each edge that crosses from the set to a tainted
		// function outside it. In-set callees report their own sources
		// (or the crossing deeper in their own chain), so one
		// laundering path yields one finding at the boundary.
		for _, e := range append(append([]Edge{}, fi.Calls...), fi.Spawns...) {
			if simPackages[e.To.Pkg.Base()] || tainted[e.To] == nil {
				continue
			}
			pass.Reportf(e.Pos,
				"call to %s reaches a nondeterministic input (%s) from simulation package %q; inject the value through Config or clock.Clock, or annotate //doralint:allow %s <reason>",
				e.To.Name, taintChain(e.To, tainted), fi.Pkg.Base(), RuleDetFlow)
		}
	}
	for _, pkg := range pass.Mod.Pkgs {
		if simPackages[pkg.Base()] {
			detFlowUnseen(pass, pkg)
		}
	}
}

// reportNondetCall reports a direct call to fn from simulation package
// base when fn is a nondeterministic source.
func reportNondetCall(pass *ModulePass, pos token.Pos, fn *types.Func, base string) {
	if desc := nondetSource(fn); desc != "" {
		pass.Reportf(pos,
			"call to %s reads a nondeterministic input inside simulation package %q; inject the value through Config, clock.Clock or a seeded rand.New(rand.NewSource(seed)), or annotate //doralint:allow %s <reason>",
			desc, base, RuleDetFlow)
	}
}

// detFlowUnseen reports what the call graph cannot carry taint for in
// simulation package pkg: an obslog import, and a reference to the
// monotonic clock other than a static call (a type, an interface
// method, a function value).
func detFlowUnseen(pass *ModulePass, pkg *Package) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && pathBase(path) == "obslog" {
				pass.Reportf(imp.Pos(),
					"import of %s brings wall-clock logging into simulation package %q; log from the caller (serve, CLI) and keep the kernel silent",
					path, pkg.Base())
			}
		}
		staticCall := map[*ast.Ident]bool{} // callees the taint already sees
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					break
				}
				if fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func); fn != nil && !isInterfaceMethod(fn) {
					staticCall[sel.Sel] = true
				}
			case *ast.SelectorExpr:
				if obj := pkg.Info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil && !staticCall[n.Sel] &&
					pathBase(obj.Pkg().Path()) == "clock" && monoClockIdent(obj.Name()) {
					pass.Reportf(n.Sel.Pos(),
						"reference to clock.%s reads the monotonic wall clock inside simulation package %q; simulation time must advance only by simulated quanta (clock.Clock)",
						obj.Name(), pkg.Base())
				}
			}
			return true
		})
	}
}

// detSource describes the first nondeterministic external call fi
// makes directly, or "" (see nondetSource).
func detSource(fi *FuncInfo) string {
	for _, ext := range fi.Externals {
		if desc := nondetSource(ext.Fn); desc != "" {
			return desc
		}
	}
	return ""
}

// taintChain renders the call chain from fn to its nondeterministic
// source, e.g. "helper.Stamp → helper.now → time.Now".
func taintChain(fn *FuncInfo, tainted map[*FuncInfo]*taintMark) string {
	var parts []string
	for cur := fn; ; {
		t := tainted[cur]
		if t == nil {
			parts = append(parts, cur.Name)
			break
		}
		if t.next == nil {
			if t.self {
				parts = append(parts, cur.Name+" ("+t.desc+")")
			} else {
				parts = append(parts, cur.Name, t.desc)
			}
			break
		}
		parts = append(parts, cur.Name)
		cur = t.next
	}
	return strings.Join(parts, " → ")
}
