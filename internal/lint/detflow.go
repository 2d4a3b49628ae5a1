package lint

import "strings"

// DetFlow treats determinism as taint. The per-package determinism
// rule only looks inside the fingerprint-feeding package set, so a
// wall-clock read laundered through a helper package outside that set
// is invisible to it. DetFlow closes the hole: it marks every module
// function that (transitively, over static call and spawn edges)
// reaches a nondeterministic input — time.Now/Since/Until, a
// non-seeding math/rand package function, os.Getenv/LookupEnv/Environ,
// or the monotonic side of internal/clock — and reports each call site
// where a simulation-set function calls a tainted function outside the
// set.
//
// It supersedes the package-set rule without replacing it: in-set
// sources keep their precise per-package diagnostics (and the obslog
// import ban has no call edge to taint), while detflow adds the
// cross-package reach the set cannot express. Taint deliberately does
// not flow through interface dispatch or function values: injecting a
// clock.Clock implementation is the sanctioned seam for giving
// simulation code a time source, and that seam is exactly an interface
// call. Seeded rand.New(rand.NewSource(seed)) chains stay clean
// because New/NewSource/NewZipf are not sources and *rand.Rand methods
// are deterministic state machines.
var DetFlow = &Analyzer{
	Name: RuleDetFlow,
	Doc: "flags calls from simulation-set packages to functions outside " +
		"the set that transitively reach time.Now, the global RNG, " +
		"os.Getenv, or the monotonic clock",
	RunModule: runDetFlow,
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
	// Report each edge that crosses from the determinism set to a
	// tainted function outside it. In-set callees are left to the
	// per-package rule (or to the crossing deeper in their own chain),
	// so one laundering path yields one finding at the boundary.
	for _, fi := range g.Funcs {
		if !simPackages[fi.Pkg.Base()] {
			continue
		}
		for _, e := range append(append([]Edge{}, fi.Calls...), fi.Spawns...) {
			if simPackages[e.To.Pkg.Base()] {
				continue
			}
			if tainted[e.To] == nil {
				continue
			}
			pass.Reportf(e.Pos,
				"call to %s reaches a nondeterministic input (%s) from simulation package %q; inject the value through Config or clock.Clock, or annotate //doralint:allow %s <reason>",
				e.To.Name, taintChain(e.To, tainted), fi.Pkg.Base(), RuleDetFlow)
		}
	}
}

// detSource describes the first nondeterministic external call fi
// makes directly, or "" (see classifyNondet).
func detSource(fi *FuncInfo) string {
	for _, ext := range fi.Externals {
		fn := ext.Fn
		switch classifyNondet(fn) {
		case wallClock, processEnv:
			return fn.Pkg().Name() + "." + fn.Name()
		case globalRNG:
			return fn.Pkg().Name() + "." + fn.Name() + " (process-global RNG)"
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
