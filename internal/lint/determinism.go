package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Determinism bans nondeterministic inputs — wall clock, global RNG,
// process environment — inside the simulation/observable packages.
// Every observable the campaign fingerprint hashes must be a pure
// function of the seeded configuration; one stray time.Now or
// rand.Int breaks bit-identical reruns silently until a golden test
// happens to catch it.
//
// The serving observability layer gets the same treatment at its two
// entry points: importing obslog (whose whole point is wall-clock
// timestamps and process-global sinks) and touching the monotonic
// side of internal/clock (clock.Mono and friends measure real elapsed
// time; the sim clock advances only by simulated quanta). Both are
// banned by name so the deliberate split — monotonic time for serving
// latency, deterministic ticks for simulation — cannot erode quietly.
var Determinism = &Analyzer{
	Name: RuleDeterminism,
	Doc: "bans time.Now/Since/Until, top-level math/rand calls, os.Getenv, " +
		"obslog imports, and clock.Mono* references inside simulation packages; " +
		"seeded rand.New(rand.NewSource(seed)) stays legal",
	Run: runDeterminism,
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

// nondetInput classifies a call target as one of the nondeterministic
// inputs both the per-package determinism rule and the call-graph
// detflow rule ban.
type nondetInput int

const (
	deterministic nondetInput = iota
	wallClock                 // time.Now/Since/Until
	globalRNG                 // top-level math/rand draws
	processEnv                // os.Getenv/LookupEnv/Environ
)

// classifyNondet reports which nondeterministic input calling fn reads.
// Methods — e.g. (*rand.Rand).Int63 on a seeded generator — are
// deterministic state machines and never count.
func classifyNondet(fn *types.Func) nondetInput {
	if fn == nil || fn.Pkg() == nil {
		return deterministic
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return deterministic
	}
	switch fn.Pkg().Path() {
	case "time":
		if timeBanned[fn.Name()] {
			return wallClock
		}
	case "math/rand", "math/rand/v2":
		if !randAllowed[fn.Name()] {
			return globalRNG
		}
	case "os":
		if osBanned[fn.Name()] {
			return processEnv
		}
	}
	return deterministic
}

// monoClockIdent reports whether name is part of the monotonic side
// of internal/clock (MonoTime, MonoClock, Mono, ManualMono, MonoOr,
// MonoSince, ...). The deterministic Clock/Manual side stays legal.
func monoClockIdent(name string) bool {
	return strings.HasPrefix(name, "Mono") || name == "ManualMono"
}

func runDeterminism(pass *Pass) {
	if !pass.SimPackage() {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if pathBase(path) == "obslog" {
				pass.Reportf(imp.Pos(),
					"import of %s brings wall-clock logging into simulation package %q; log from the caller (serve, CLI) and keep the kernel silent",
					path, pass.Pkg.Base())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if obj, ok := pass.Pkg.Info.Uses[sel.Sel]; ok && obj.Pkg() != nil &&
					pathBase(obj.Pkg().Path()) == "clock" && monoClockIdent(obj.Name()) {
					pass.Reportf(sel.Sel.Pos(),
						"reference to clock.%s reads the monotonic wall clock inside simulation package %q; simulation time must advance only by simulated quanta (clock.Clock)",
						obj.Name(), pass.Pkg.Base())
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.Callee(call)
			switch classifyNondet(fn) {
			case wallClock:
				pass.Reportf(call.Pos(),
					"call to time.%s reads the wall clock inside simulation package %q; route it through an injectable clock (internal/clock) or annotate //doralint:allow %s <reason>",
					fn.Name(), pass.Pkg.Base(), RuleDeterminism)
			case globalRNG:
				pass.Reportf(call.Pos(),
					"call to %s.%s draws from the process-global RNG inside simulation package %q; use a seeded rand.New(rand.NewSource(seed)) instead",
					fn.Pkg().Name(), fn.Name(), pass.Pkg.Base())
			case processEnv:
				pass.Reportf(call.Pos(),
					"call to os.%s makes simulation package %q depend on the process environment; plumb the value through Config instead",
					fn.Name(), pass.Pkg.Base())
			}
			return true
		})
	}
}
