// Package power composes the smartphone power model: per-core dynamic
// switching power (C_eff * V^2 * f * activity), the paper's empirical
// leakage model (Eq. 5, after Liao et al.), uncore/cache access energy,
// and the whole-device baseline (display and other active components).
// The paper's energy-efficiency metric PPW — performance per watt,
// 1/(load time x power) — is provided as a helper.
//
// A Meter integrates power over simulated time the way the paper's NI
// DAQ integrates real measurements.
package power

import (
	"errors"
	"math"
	"time"
)

// CoreParams models one Krait core's dynamic power.
type CoreParams struct {
	// CeffF is the effective switched capacitance in farads.
	CeffF float64
	// StallActivity is the fraction of full switching activity a core
	// sustains while stalled on memory (clock still toggling, pipeline
	// mostly idle).
	StallActivity float64
}

// DefaultCore returns parameters calibrated so one core at the 2.265
// GHz / 1.10 V OPP burns ~1.5 W fully active, ~0.1 W at the 300 MHz
// floor — the Krait 400 envelope.
func DefaultCore() CoreParams {
	return CoreParams{CeffF: 0.55e-9, StallActivity: 0.30}
}

// Dynamic returns a core's dynamic power in watts.
//
//	voltV    — supply voltage
//	freqHz   — core clock
//	busyFrac — fraction of wall time the core was not idle
//	stallFrac — of the busy time, fraction stalled on memory
func (p CoreParams) Dynamic(voltV, freqHz, busyFrac, stallFrac float64) float64 {
	busyFrac = clamp01(busyFrac)
	stallFrac = clamp01(stallFrac)
	activity := busyFrac * ((1-stallFrac)*1.0 + stallFrac*p.StallActivity)
	return p.CeffF * voltV * voltV * freqHz * activity
}

// LeakageParams is the paper's Eq. (5):
//
//	P_lkg = k1 * v * T^2 * e^(alpha*v + beta*T) + k2 * e^(gamma*v + delta)
//
// with v in volts and T in degrees Celsius.
type LeakageParams struct {
	K1, Alpha, Beta  float64
	K2, Gamma, Delta float64
}

// DefaultLeakage returns the simulator's ground-truth leakage
// parameters, calibrated so the SoC leaks ~0.15 W cold at the voltage
// floor and approaching ~0.9 W at 1.10 V / 65 degC — large enough that
// ignoring it (DORA_no_lkg) costs real efficiency, as in Fig. 10.
func DefaultLeakage() LeakageParams {
	return LeakageParams{
		K1: 8e-6, Alpha: 2.0, Beta: 0.012,
		K2: 0.30, Gamma: 1.2, Delta: -2.0,
	}
}

// Power evaluates Eq. (5) at supply voltage v (volts) and temperature
// tempC (Celsius). Negative results cannot occur for positive
// parameters; inputs are lightly clamped to the physical range.
func (l LeakageParams) Power(v, tempC float64) float64 {
	if v < 0 {
		v = 0
	}
	if tempC < -40 {
		tempC = -40
	}
	return l.K1*v*tempC*tempC*math.Exp(l.Alpha*v+l.Beta*tempC) +
		l.K2*math.Exp(l.Gamma*v+l.Delta)
}

// Params evaluates Eq. (5) with an explicit parameter vector in the
// order [k1, alpha, beta, k2, gamma, delta] — the form handed to the
// nonlinear fitter during training.
func Params(p []float64, v, tempC float64) float64 {
	return LeakageParams{
		K1: p[0], Alpha: p[1], Beta: p[2],
		K2: p[3], Gamma: p[4], Delta: p[5],
	}.Power(v, tempC)
}

// Config is the full device power model.
type Config struct {
	Core    CoreParams
	Leakage LeakageParams
	// L2EnergyPerAccessJ is the energy of one shared-L2 access.
	L2EnergyPerAccessJ float64
	// UncoreIdleW is constant SoC uncore power (interconnect, always-on).
	UncoreIdleW float64
	// BaselineW is the rest-of-device power: display at browsing
	// brightness, storage, radios. The paper measures whole-device
	// power, so PPW includes this; it is what makes running slower
	// than f_E a net energy loss.
	BaselineW float64
}

// DefaultDevice returns the Nexus 5-calibrated device power model.
func DefaultDevice() Config {
	return Config{
		Core:               DefaultCore(),
		Leakage:            DefaultLeakage(),
		L2EnergyPerAccessJ: 0.3e-9,
		UncoreIdleW:        0.12,
		BaselineW:          1.15,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Core.CeffF <= 0 {
		return errors.New("power: non-positive core capacitance")
	}
	if c.Core.StallActivity < 0 || c.Core.StallActivity > 1 {
		return errors.New("power: StallActivity outside [0,1]")
	}
	if c.L2EnergyPerAccessJ < 0 || c.UncoreIdleW < 0 || c.BaselineW < 0 {
		return errors.New("power: negative component power")
	}
	if c.Leakage.K1 < 0 || c.Leakage.K2 < 0 {
		return errors.New("power: negative leakage coefficients")
	}
	return nil
}

// Breakdown itemizes device power at one instant.
type Breakdown struct {
	CoreDynamicW float64
	LeakageW     float64
	L2W          float64
	UncoreW      float64
	BaselineW    float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.CoreDynamicW + b.LeakageW + b.L2W + b.UncoreW + b.BaselineW
}

// SoC returns power excluding the device baseline — the part that heats
// the thermal model.
func (b Breakdown) SoC() float64 {
	return b.CoreDynamicW + b.LeakageW + b.L2W + b.UncoreW
}

// Meter integrates power over simulated time, DAQ-style.
type Meter struct {
	energyJ float64
	elapsed time.Duration
}

// Record accumulates dt at the given instantaneous power.
func (m *Meter) Record(dt time.Duration, watts float64) {
	if dt <= 0 || watts < 0 {
		return
	}
	m.energyJ += watts * dt.Seconds()
	m.elapsed += dt
}

// EnergyJ returns the integrated energy.
func (m *Meter) EnergyJ() float64 { return m.energyJ }

// Elapsed returns the integrated duration.
func (m *Meter) Elapsed() time.Duration { return m.elapsed }

// AvgPowerW returns mean power over the recorded interval.
func (m *Meter) AvgPowerW() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return m.energyJ / m.elapsed.Seconds()
}

// Reset clears the meter.
func (m *Meter) Reset() { *m = Meter{} }

// PPW is the paper's energy-efficiency metric: performance per watt,
// 1 / (load time x average power) = 1 / energy. Higher is better.
func PPW(loadTime time.Duration, avgPowerW float64) float64 {
	t := loadTime.Seconds()
	if t <= 0 || avgPowerW <= 0 {
		return 0
	}
	return 1 / (t * avgPowerW)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// MeterSnapshot is the integrator's state, exported for simulation
// checkpoints.
type MeterSnapshot struct {
	EnergyJ float64
	Elapsed time.Duration
}

// Snapshot captures the meter state.
func (m *Meter) Snapshot() MeterSnapshot {
	return MeterSnapshot{EnergyJ: m.energyJ, Elapsed: m.elapsed}
}

// Restore overwrites the meter state with a snapshot.
func (m *Meter) Restore(s MeterSnapshot) {
	m.energyJ = s.EnergyJ
	m.elapsed = s.Elapsed
}
