package sim

import (
	"fmt"
	"sync"

	"dora/internal/render"
	"dora/internal/webdoc"
	"dora/internal/webgen"
)

// PagePlan returns the render plan of spec under render.DefaultConfig.
// A plan does not depend on the seed, so the plans of corpus pages
// (webgen.ByName's specs) are built once per process and shared by
// every run; any other page is built fresh on each call. The returned
// plan is read-only: workload.FromSegments only reads its segments, and
// callers must not modify it.
func PagePlan(spec webgen.Spec) (*render.Plan, error) {
	if e, ok := corpusPlans[spec]; ok {
		e.once.Do(func() { e.plan, e.err = buildPlan(spec) })
		return e.plan, e.err
	}
	return buildPlan(spec)
}

// buildPlan generates, parses and plans spec's HTML.
func buildPlan(spec webgen.Spec) (*render.Plan, error) {
	doc, err := webdoc.Parse(spec.HTML())
	if err != nil {
		return nil, fmt.Errorf("sim: parse %s: %w", spec.Name, err)
	}
	plan, err := render.BuildPlan(render.DefaultConfig(), doc)
	if err != nil {
		return nil, fmt.Errorf("sim: plan %s: %w", spec.Name, err)
	}
	return plan, nil
}

// memoPlan is one corpus page's slot in the plan memo.
type memoPlan struct {
	once sync.Once
	plan *render.Plan
	err  error
}

// corpusPlans is the plan memo: one slot per corpus page, keyed by its
// full spec, so a scaled copy of a corpus page misses. Its slots are
// fixed when the package loads, which bounds it at len(webgen.Names())
// plans.
var corpusPlans = func() map[webgen.Spec]*memoPlan {
	names := webgen.Names()
	slots := make(map[webgen.Spec]*memoPlan, len(names))
	for _, name := range names {
		spec, err := webgen.ByName(name)
		if err != nil {
			panic(err) // webgen.Names lists only pages ByName knows
		}
		slots[spec] = &memoPlan{}
	}
	return slots
}()
