package dora

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dora/internal/core"
	"dora/internal/regress"
)

var (
	apiOnce   sync.Once
	apiModels *Models
	apiErr    error
)

// apiTrain trains one very small model set for the API tests.
func apiTrain(t *testing.T) *Models {
	t.Helper()
	apiOnce.Do(func() {
		// Smaller than Fast: just enough for plumbing.
		apiModels, _, apiErr = trainTiny()
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiModels
}

func TestCorpusAndKernelLists(t *testing.T) {
	if len(Pages()) != 18 {
		t.Fatalf("Pages = %d, want 18", len(Pages()))
	}
	if len(TrainingPages()) != 14 {
		t.Fatalf("TrainingPages = %d, want 14", len(TrainingPages()))
	}
	if len(CoRunners()) != 9 {
		t.Fatalf("CoRunners = %d, want 9", len(CoRunners()))
	}
}

func TestDefaultDevice(t *testing.T) {
	dev := DefaultDevice()
	if err := dev.Validate(); err != nil {
		t.Fatal(err)
	}
	if dev.OPPs.Len() != 14 {
		t.Fatalf("OPP ladder = %d, want 14", dev.OPPs.Len())
	}
}

func TestBaselineGovernors(t *testing.T) {
	if NewInteractive().Name() != "interactive" {
		t.Fatal("interactive name")
	}
	if NewPerformance().Name() != "performance" {
		t.Fatal("performance name")
	}
	if NewPowersave().Name() != "powersave" {
		t.Fatal("powersave name")
	}
	dev := DefaultDevice()
	if NewFixed(dev, 1000).Name() != "fixed" {
		t.Fatal("fixed name")
	}
}

func TestLoadPageWithBaselineGovernor(t *testing.T) {
	res, err := LoadPage(LoadOptions{
		Device:   DefaultDevice(),
		Governor: NewFixed(DefaultDevice(), 2265),
		Page:     "Alipay",
		CoRunner: "kmeans",
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadTime <= 0 || res.PPW <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.CoRunName != "kmeans" {
		t.Fatalf("co-runner = %q", res.CoRunName)
	}
}

func TestLoadPageErrors(t *testing.T) {
	if _, err := LoadPage(LoadOptions{Device: DefaultDevice(), Governor: NewPerformance(), Page: "nope"}); err == nil {
		t.Fatal("unknown page must error")
	}
	if _, err := LoadPage(LoadOptions{Device: DefaultDevice(), Governor: NewPerformance(), Page: "MSN", CoRunner: "nope"}); err == nil {
		t.Fatal("unknown co-runner must error")
	}
	if _, err := LoadPage(LoadOptions{Device: DefaultDevice(), Page: "MSN"}); err == nil {
		t.Fatal("nil governor must error")
	}
}

func TestTrainedGovernorsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models (tiny grid, ~30 s)")
	}
	models := apiTrain(t)
	dora, err := NewDORA(models)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LoadPage(LoadOptions{
		Device:           DefaultDevice(),
		Governor:         dora,
		Page:             "MSN",
		CoRunner:         "backprop",
		DecisionInterval: 100 * time.Millisecond,
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Governor != "DORA" {
		t.Fatalf("governor = %q", res.Governor)
	}
	if res.LoadTime <= 0 {
		t.Fatal("no load time")
	}
	for _, mk := range []func(*Models) (Governor, error){NewDeadlineOnly, NewEnergyOnly, NewDORAWithoutLeakage} {
		if _, err := mk(models); err != nil {
			t.Fatal(err)
		}
	}
	// Invalid models rejected.
	if _, err := NewDORA(&Models{}); err == nil {
		t.Fatal("empty models must be rejected")
	}
}

// The facade constructors build exactly the core governor table's
// configuration for their names — DL included, with its deadline
// margin.
func TestFacadeGovernorsMatchTable(t *testing.T) {
	stub := &core.Piecewise{Groups: map[int]*regress.Model{333: {}}}
	m := &Models{LoadTime: stub, DynPower: stub, Static: core.StaticPower{Params: make([]float64, 6)}}
	model := map[string]func(*Models) (Governor, error){
		"DORA": NewDORA, "DORA_no_lkg": NewDORAWithoutLeakage, "DL": NewDeadlineOnly, "EE": NewEnergyOnly,
	}
	free := map[string]func() Governor{
		"interactive": NewInteractive, "performance": NewPerformance, "powersave": NewPowersave,
		"ondemand": NewOndemand, "conservative": NewConservative,
	}
	for _, name := range core.GovernorNames() {
		want, _, err := core.NewGovernor(name, m)
		if err != nil {
			t.Fatal(err)
		}
		var got Governor
		if mk, ok := model[name]; ok {
			if got, err = mk(m); err != nil {
				t.Fatal(err)
			}
		} else {
			got = free[name]()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("facade %s = %+v, table builds %+v", name, got, want)
		}
	}
}
