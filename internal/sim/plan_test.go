package sim

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dora/internal/governor"
	"dora/internal/soc"
	"dora/internal/webgen"
)

// memoizedPlans counts the plans the plan memo holds.
func memoizedPlans() int {
	n := 0
	for _, e := range corpusPlans {
		if e.plan != nil {
			n++
		}
	}
	return n
}

// TestPagePlanMemo pins the plan memo: a corpus page is planned once
// per process and shared, any other page is planned fresh on every call
// and never kept, and the memo has one slot per corpus page.
func TestPagePlanMemo(t *testing.T) {
	spec, err := webgen.ByName("MSN")
	if err != nil {
		t.Fatal(err)
	}
	a, err := PagePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PagePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("two plans of the same corpus page are not one shared plan")
	}
	fresh, err := buildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, fresh) {
		t.Error("the memoized plan differs from a freshly built one")
	}

	// A scaled corpus page, as the complexity sweep loads, is built
	// fresh and not kept.
	held := memoizedPlans()
	scaled := spec.Scaled(1.5)
	p, err := PagePlan(scaled)
	if err != nil {
		t.Fatal(err)
	}
	q, err := PagePlan(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if p == q || p == a {
		t.Error("scaled MSN: plan shared, want one built per call")
	}
	if !reflect.DeepEqual(p, q) {
		t.Error("scaled MSN: two fresh plans differ")
	}
	if got := memoizedPlans(); got != held {
		t.Errorf("planning non-corpus pages grew the memo from %d to %d plans", held, got)
	}

	if slots, bound := len(corpusPlans), len(webgen.Names()); slots != bound || held > bound {
		t.Errorf("memo has %d slots holding %d plans, want one slot per corpus page (%d)", slots, held, bound)
	}
}

// TestConcurrentLoadsSharePlan runs loads of one page at once, so that
// under -race they race for its memo slot (a fresh one when the test
// runs alone), and checks that each gives the same result as a load on
// its own.
func TestConcurrentLoadsSharePlan(t *testing.T) {
	cfg := soc.NexusFive()
	opts := func() Options {
		return Options{
			SoC:      cfg,
			Governor: governor.NewInteractive(governor.DefaultInteractiveConfig()),
			Seed:     1,
			Warmup:   20 * time.Millisecond,
		}
	}
	wl := fidelityWorkload(t, "Alipay", "")
	const loads = 3
	results := make([]Result, loads)
	errs := make([]error, loads)
	var wg sync.WaitGroup
	for i := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = LoadPage(opts(), wl)
		}()
	}
	wg.Wait()
	want, err := LoadPage(opts(), wl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loads {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("concurrent load %d differs from a load on its own", i)
		}
	}
}
