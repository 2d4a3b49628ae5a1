package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dora/internal/governor"
)

// The governor table: the experiment suite, dorad, dorasim and the dora
// facade build every named governor here, so one name always means one
// configuration and decision interval. "fixed" is not in the table:
// each caller maps a frequency to an OPP its own way.

// ErrNeedsModels reports a model-based governor requested without
// trained models.
var ErrNeedsModels = errors.New("governor needs trained models")

// ModelInterval is the model-based governors' decision interval, the
// paper's chosen DORA interval (Section IV-C).
const ModelInterval = 100 * time.Millisecond

// The table's names in canonical order.
var (
	freeGovernors  = []string{"interactive", "performance", "powersave", "ondemand", "conservative"}
	modelGovernors = []string{"DORA", "DORA_no_lkg", "DL", "EE"}
)

// GovernorNames lists the table: the model-free governors, then the
// model-based ones.
func GovernorNames() []string { return append(slices.Clip(freeGovernors), modelGovernors...) }

// NeedsModels reports whether name is a model-based table governor.
func NeedsModels(name string) bool { return slices.Contains(modelGovernors, name) }

// NewGovernor builds a fresh instance of the named table governor and
// returns its decision interval. Model-based names with nil models
// yield an error wrapping ErrNeedsModels.
func NewGovernor(name string, models *Models) (governor.Governor, time.Duration, error) {
	var opts Options
	switch name {
	case "interactive":
		return governor.NewInteractive(governor.DefaultInteractiveConfig()), 20 * time.Millisecond, nil
	case "performance":
		return governor.NewPerformance(), 20 * time.Millisecond, nil
	case "powersave":
		return governor.NewPowersave(), 20 * time.Millisecond, nil
	case "ondemand":
		return governor.NewOndemand(governor.DefaultOndemandConfig()), 50 * time.Millisecond, nil
	case "conservative":
		return governor.NewConservative(governor.DefaultConservativeConfig()), 20 * time.Millisecond, nil
	case "DORA":
		opts = Options{Mode: ModeDORA, UseLeakage: true}
	case "DORA_no_lkg":
		opts = Options{Mode: ModeDORA}
	case "DL":
		opts = Options{Mode: ModeDL, UseLeakage: true, DeadlineMargin: 0.93}
	case "EE":
		opts = Options{Mode: ModeEE, UseLeakage: true}
	default:
		return nil, 0, fmt.Errorf("core: unknown governor %q (choose from %v)", name, GovernorNames())
	}
	if models == nil {
		return nil, 0, fmt.Errorf("core: governor %q: %w", name, ErrNeedsModels)
	}
	g, err := New(models, opts)
	if err != nil {
		return nil, 0, err
	}
	return g, ModelInterval, nil
}
