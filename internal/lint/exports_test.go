package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// testOnlyExportKeep lists the exported functions and methods that no
// non-test code of the module calls but that stay, each with why.
// Keys are "<import path>.<Func>" or "<import path>.<Type>.<Method>".
var testOnlyExportKeep = map[string]string{
	// The root package is the library's documented API.
	"dora.NewCheckpointStore":    "facade: warm checkpoints go as a whole (ROADMAP item 9)",
	"dora.NewConservative":       "facade: documented governor constructor",
	"dora.NewDORAWithoutLeakage": "facade: documented governor constructor",
	"dora.NewOndemand":           "facade: documented governor constructor",
	"dora.NewPowersave":          "facade: documented governor constructor",
	"dora.TrainingPages":         "facade: documented corpus listing",

	// dorabench is its own module, so the loader cannot see its calls.
	"dora/internal/cache.Cache.AccessN":     "dorabench: cache.accessn_ns_per_ref",
	"dora/internal/cluster.Pick":            "dorabench: cluster.pick_ns",
	"dora/internal/serve.DecodeLoadRequest": "dorabench: serve workloads build their requests with it",
	"dora/internal/workload.NewRefGen":      "dorabench: workload.fillblock_ns_per_ref",

	// Other packages' tests use these as oracles or aids.
	"dora/internal/cache.Cache.Flush":         "oracle: resets a cache between phases of the differential tests",
	"dora/internal/cache.Cache.OwnerLines":    "oracle: the differential and invariant tests compare per-owner occupancy",
	"dora/internal/cache.Cache.Stats":         "oracle: the differential tests compare per-owner counters",
	"dora/internal/cache.Cache.ValidLines":    "oracle: the differential and invariant tests compare occupancy",
	"dora/internal/cache.Private.Stats":       "oracle: the private-L1 differential tests read it",
	"dora/internal/dvfs.Table.BusGroups":      "oracle: core tests check the governor's bus tiers against it",
	"dora/internal/lint.AllRuleNames":         "oracle: doralint's tests and the lint-report check list every rule",
	"dora/internal/memo.Group.Values":         "oracle: experiment tests compare the run memo's stored values",
	"dora/internal/memo.Group.Waiters":        "oracle: serve tests wait for deduplicated joiners",
	"dora/internal/sim.CampaignFingerprint":   "oracle: the golden campaign fingerprint the behaviour contract names",
	"dora/internal/sim.CheckpointStore.Len":   "oracle: BENCH_SAMPLED.json's warm_checkpoints (ROADMAP item 9)",
	"dora/internal/thermal.Model.CoreTemp":    "oracle: soc's thermal test reads the loaded core's sensor",
	"dora/internal/stats.MeanErr":             "oracle: sim's sampled-error tests",
	"dora/internal/webdoc.FeatureNames":       "oracle: core and train tests check the model's inputs against it",
	"dora/internal/wire.Client.Campaign":      "oracle: serve's stream campaign tests",
	"dora/internal/wire.Client.Draining":      "oracle: serve's stream drain tests",
	"dora/internal/workload.Segment.Validate": "oracle: corun and render tests validate the segments they emit",
}

// testOnlyExportKeepPkgs lists packages whose whole exported surface
// exists for tests.
var testOnlyExportKeepPkgs = map[string]string{
	"dora/internal/cluster/harness": "test-support package: an in-process cluster for other packages' tests",
}

// TestNoTestOnlyExports fails on an exported function or method that no
// non-test code of the module calls and that the keep list does not
// name: such code is surface kept green for its own tests only. A
// method whose name some interface in view declares counts as called,
// since a dynamic call cannot be traced to its receiver. The loader
// sees the default build (host GOARCH, no tags), like go build.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module scan in -short mode")
	}
	mod, err := repoModule()
	if err != nil {
		t.Fatalf("loading repository module: %v", err)
	}
	found := map[string]bool{}
	for _, name := range testOnlyExports(mod) {
		found[name] = true
		if _, ok := testOnlyExportKeep[name]; !ok {
			t.Errorf("%s: exported, but only tests call it; delete it with its tests, or add it to testOnlyExportKeep with a reason", name)
		}
	}
	for name := range testOnlyExportKeep {
		if !found[name] {
			t.Errorf("testOnlyExportKeep lists %s, which non-test code calls or which is gone; drop the entry", name)
		}
	}
}

// testOnlyExports returns the exported functions and methods of mod's
// non-main packages that no non-test code references, sorted.
func testOnlyExports(mod *Module) []string {
	used := map[*types.Func]bool{}
	ifaceMethods := map[string]bool{}
	noteIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range mod.Pkgs {
		for _, obj := range p.Info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				// Origin maps an instantiated generic method to its
				// declaration.
				used[obj.Origin()] = true
			case *types.TypeName:
				noteIface(obj.Type())
			}
		}
		for _, sel := range p.Info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				noteIface(tv.Type)
			}
		}
	}
	var out []string
	for _, p := range mod.Pkgs {
		if p.Name == "main" || testOnlyExportKeepPkgs[p.Path] != "" {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if used[fn] {
					continue
				}
				name := p.Path + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if ifaceMethods[fd.Name.Name] {
						continue
					}
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					if named, ok := rt.(*types.Named); ok {
						name = p.Path + "." + named.Obj().Name() + "." + fd.Name.Name
					}
				}
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}
