// Package core implements the paper's primary contribution: DORA, the
// Dynamic quality Of service, memoRy interference-Aware frequency
// governor (Algorithm 1). DORA holds statically-trained piecewise
// response-surface models for web page load time and dynamic power,
// plus the fitted Eq. (5) static/leakage power model, and at every
// decision interval enumerates the OPP table, keeps the
// deadline-feasible settings, and selects the one with the highest
// predicted PPW.
//
// The same model container also powers the paper's two hypothetical
// comparison governors: DL (deadline-only: the lowest feasible
// frequency) and EE (energy-only: maximum predicted PPW regardless of
// deadline).
package core

import (
	"errors"
	"fmt"
	"time"

	"dora/internal/dvfs"
	"dora/internal/governor"
	"dora/internal/power"
	"dora/internal/regress"
)

// FeatureNames lists the paper's Table I independent variables, in
// model-input order: the five page-complexity features X1-X5, then the
// runtime features X6 (shared-L2 MPKI of co-scheduled work), X7 (core
// frequency, GHz), X8 (memory bus frequency, MHz), and X9 (co-run core
// utilization).
func FeatureNames() []string {
	return []string{
		"dom_nodes", "class_attrs", "href_attrs", "a_tags", "div_tags",
		"l2_mpki", "core_freq_ghz", "bus_freq_mhz", "corun_util",
	}
}

// InputVector assembles the model input for a candidate OPP.
func InputVector(page []float64, mpki float64, opp dvfs.OPP, util float64) ([]float64, error) {
	if len(page) != 5 {
		return nil, fmt.Errorf("core: want 5 page features, got %d", len(page))
	}
	x := make([]float64, 0, 9)
	x = append(x, page...)
	x = append(x, mpki, opp.FreqGHz(), float64(opp.BusFreqMHz), util)
	return x, nil
}

// Piecewise holds one regression model per memory-bus frequency group,
// mirroring the paper's piecewise modelling across the core-to-bus
// frequency map.
type Piecewise struct {
	Groups map[int]*regress.Model // bus MHz -> model
}

// NewPiecewise returns an empty piecewise model.
func NewPiecewise() *Piecewise {
	return &Piecewise{Groups: map[int]*regress.Model{}}
}

// Add registers the model for a bus-frequency group.
func (p *Piecewise) Add(busMHz int, m *regress.Model) { p.Groups[busMHz] = m }

// Predict evaluates the group model for the OPP's bus tier.
func (p *Piecewise) Predict(opp dvfs.OPP, x []float64) (float64, error) {
	if p == nil || len(p.Groups) == 0 {
		return 0, errors.New("core: empty piecewise model")
	}
	m, ok := p.Groups[opp.BusFreqMHz]
	if !ok {
		return 0, fmt.Errorf("core: no model for bus tier %d MHz", opp.BusFreqMHz)
	}
	return m.Predict(x)
}

// StaticPower is the fitted static (leakage + constant floor) power
// model: Eq. (5) plus an additive constant for the voltage- and
// temperature-independent floor (uncore, device baseline).
type StaticPower struct {
	// Params is [k1, alpha, beta, k2, gamma, delta] of Eq. (5).
	Params []float64
	// ConstW is the fitted constant floor.
	ConstW float64
}

// At evaluates the static power at supply voltage v and temperature t.
func (s StaticPower) At(voltV, tempC float64) float64 {
	if len(s.Params) != 6 {
		return s.ConstW
	}
	return power.Params(s.Params, voltV, tempC) + s.ConstW
}

// Models is the trained predictor bundle DORA carries.
type Models struct {
	// Features names the model inputs (FeatureNames order).
	Features []string
	// LoadTime predicts the whole-load web page load time in seconds.
	LoadTime *Piecewise
	// DynPower predicts the load-average device power in watts above
	// the static component.
	DynPower *Piecewise
	// Static is the fitted leakage + floor model.
	Static StaticPower
	// RefTempC is the temperature a leakage-oblivious configuration
	// assumes (the DORA_no_lkg ablation of Fig. 10).
	RefTempC float64
}

// Validate checks the bundle is usable.
func (m *Models) Validate() error {
	if m == nil {
		return errors.New("core: nil models")
	}
	if m.LoadTime == nil || len(m.LoadTime.Groups) == 0 {
		return errors.New("core: missing load-time model")
	}
	if m.DynPower == nil || len(m.DynPower.Groups) == 0 {
		return errors.New("core: missing power model")
	}
	if len(m.Static.Params) != 6 {
		return errors.New("core: static model must have 6 parameters")
	}
	return nil
}

// Prediction is one candidate OPP's predicted outcome.
type Prediction struct {
	OPP       dvfs.OPP
	LoadTimeS float64
	PowerW    float64
	PPW       float64
	Feasible  bool // predicted to meet the deadline
}

// PredictAll evaluates every OPP in the table for the given inputs.
// useLeakage selects whether the static component tracks the live
// temperature or is frozen at RefTempC (DORA_no_lkg).
func (m *Models) PredictAll(tab *dvfs.Table, page []float64, mpki, util, tempC float64, deadline time.Duration, useLeakage bool) ([]Prediction, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := make([]Prediction, 0, tab.Len())
	for i := 0; i < tab.Len(); i++ {
		opp := tab.At(i)
		x, err := InputVector(page, mpki, opp, util)
		if err != nil {
			return nil, err
		}
		t, err := m.LoadTime.Predict(opp, x)
		if err != nil {
			return nil, err
		}
		dyn, err := m.DynPower.Predict(opp, x)
		if err != nil {
			return nil, err
		}
		temp := tempC
		if !useLeakage {
			temp = m.RefTempC
		}
		p := dyn + m.Static.At(opp.VoltageV, temp)
		if t < 1e-3 {
			t = 1e-3 // clamp pathological extrapolations
		}
		if p < 0.1 {
			p = 0.1
		}
		pr := Prediction{
			OPP:       opp,
			LoadTimeS: t,
			PowerW:    p,
			PPW:       1 / (t * p),
			Feasible:  deadline <= 0 || t <= deadline.Seconds(),
		}
		out = append(out, pr)
	}
	return out, nil
}

// Mode selects which policy the model-based governor runs.
type Mode int

const (
	// ModeDORA is Algorithm 1: max PPW subject to the deadline.
	ModeDORA Mode = iota
	// ModeDL is the deadline-only governor: lowest feasible frequency.
	ModeDL
	// ModeEE is the energy-only governor: max PPW, deadline ignored.
	ModeEE
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case ModeDORA:
		return "DORA"
	case ModeDL:
		return "DL"
	case ModeEE:
		return "EE"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures the governor.
type Options struct {
	Mode Mode
	// UseLeakage: when false the governor ignores the live temperature
	// (the DORA_no_lkg configuration of Fig. 10a).
	UseLeakage bool
	// DeadlineMargin scales the deadline used for feasibility
	// filtering (0 < m <= 1; default 1). The DL governor runs with
	// headroom (~0.93): it deliberately sits at the lowest feasible
	// frequency, so without margin any prediction error flips a
	// boundary workload into a violation.
	DeadlineMargin float64
}

// Governor is the model-based frequency governor. An interval with no
// page load in flight holds the current OPP.
type Governor struct {
	models *Models
	opts   Options

	// Last Algorithm-1 pass internals, for the decision log. Stored as
	// plain fields so Decide stays allocation-free; DecisionDetails
	// builds the map only when a log asks for it.
	lastValid    bool
	lastPred     Prediction
	lastFeasible int
}

var _ governor.Governor = (*Governor)(nil)

// New builds a model-based governor; mode selects DORA, DL, or EE.
func New(models *Models, opts Options) (*Governor, error) {
	if err := models.Validate(); err != nil {
		return nil, err
	}
	return &Governor{models: models, opts: opts}, nil
}

// Name identifies the governor in reports.
func (g *Governor) Name() string {
	n := g.opts.Mode.String()
	if !g.opts.UseLeakage && g.opts.Mode == ModeDORA {
		n += "_no_lkg"
	}
	return n
}

// Reset clears per-run state.
func (g *Governor) Reset() {
	g.lastValid = false
}

// DecisionDetails implements governor.Instrumented: the predicted
// outcome at the OPP chosen by the last model pass, and how many
// candidate settings were deadline-feasible. Nil when the last
// interval had no page load in flight.
func (g *Governor) DecisionDetails() map[string]float64 {
	if !g.lastValid {
		return nil
	}
	feasible := 0.0
	if g.lastPred.Feasible {
		feasible = 1
	}
	return map[string]float64{
		"pred_load_s":     g.lastPred.LoadTimeS,
		"pred_power_w":    g.lastPred.PowerW,
		"pred_ppw":        g.lastPred.PPW,
		"chosen_feasible": feasible,
		"feasible_opps":   float64(g.lastFeasible),
	}
}

// Decide implements Algorithm 1 of the paper.
func (g *Governor) Decide(ctx governor.Context) dvfs.OPP {
	if len(ctx.PageFeatures) == 0 {
		return ctx.Current // no load in flight: hold
	}
	deadline := ctx.Deadline
	if g.opts.DeadlineMargin > 0 && g.opts.DeadlineMargin < 1 {
		deadline = time.Duration(float64(deadline) * g.opts.DeadlineMargin)
	}
	preds, err := g.models.PredictAll(
		ctx.Table, ctx.PageFeatures,
		ctx.CoRunMPKI(), ctx.CoRunUtilization(), ctx.SoCTempC,
		deadline, g.opts.UseLeakage,
	)
	if err != nil {
		// A usable governor never wedges the device: fail to max.
		g.lastValid = false
		return ctx.Table.Max()
	}
	g.lastFeasible = 0
	for i := range preds {
		if preds[i].Feasible {
			g.lastFeasible++
		}
	}
	record := func(p Prediction) dvfs.OPP {
		g.lastValid = true
		g.lastPred = p
		return p.OPP
	}

	switch g.opts.Mode {
	case ModeEE:
		best := preds[0]
		for _, p := range preds[1:] {
			if p.PPW > best.PPW {
				best = p
			}
		}
		return record(best)

	case ModeDL:
		for _, p := range preds { // ascending frequency
			if p.Feasible {
				return record(p)
			}
		}
		return record(preds[len(preds)-1]) // table max

	default: // ModeDORA — Algorithm 1
		var best *Prediction
		for i := range preds {
			p := &preds[i]
			if !p.Feasible {
				continue
			}
			if best == nil || p.PPW > best.PPW {
				best = p
			}
		}
		if best == nil {
			// No setting meets the deadline: prioritize QoS and load as
			// fast as possible (paper, Section V-D).
			return record(preds[len(preds)-1])
		}
		return record(*best)
	}
}
