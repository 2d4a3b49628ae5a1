// Package thermal models the temperature of the simulated handset with
// a two-level RC network: a slow SoC/skin node heated by total SoC
// power, plus a fast local rise per core driven by that core's own
// power. Smartphones have no active cooling, so temperature — and with
// it leakage power — rises markedly at high frequency, which is what
// shifts DORA's optimal operating point in the paper's Fig. 10.
package thermal

import (
	"errors"
	"math"
	"time"
)

// Config parameterizes the RC network.
type Config struct {
	AmbientC float64 // ambient (room or cold) temperature, Celsius

	// SoC node: temperature rise R*P with time constant Tau.
	SoCResistance float64       // degC per watt
	SoCTimeConst  time.Duration // seconds-scale

	// Per-core local hotspot rise above the SoC node.
	CoreResistance float64 // degC per watt of that core's power
	CoreTimeConst  time.Duration

	Cores int
}

// DefaultNexus5 returns thermal parameters calibrated so a sustained
// ~3 W SoC load at room temperature (25 degC) settles near the 58-65
// degC the paper reports at 1.9 GHz.
func DefaultNexus5() Config {
	return Config{
		AmbientC:       25,
		SoCResistance:  11,
		SoCTimeConst:   12 * time.Second,
		CoreResistance: 3,
		CoreTimeConst:  1500 * time.Millisecond,
		Cores:          4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SoCResistance <= 0 || c.CoreResistance < 0 {
		return errors.New("thermal: non-positive resistance")
	}
	if c.SoCTimeConst <= 0 || c.CoreTimeConst <= 0 {
		return errors.New("thermal: non-positive time constant")
	}
	if c.Cores <= 0 {
		return errors.New("thermal: need at least one core")
	}
	return nil
}

// Model holds the thermal state.
type Model struct {
	cfg      Config
	socTemp  float64   // absolute SoC node temperature, degC
	coreRise []float64 // local rise above SoC node per core
}

// New builds a model at thermal equilibrium with ambient.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		cfg:      cfg,
		socTemp:  cfg.AmbientC,
		coreRise: make([]float64, cfg.Cores),
	}, nil
}

// SetAmbient changes the ambient temperature (the paper's room vs low
// ambient experiment). State relaxes toward the new ambient over the
// configured time constants.
func (m *Model) SetAmbient(c float64) { m.cfg.AmbientC = c }

// Step advances the model by dt with the given SoC total power and
// per-core powers (watts). The exponential update is exact for
// piecewise-constant power, so step size does not affect accuracy.
func (m *Model) Step(dt time.Duration, socPowerW float64, corePowersW []float64) {
	if dt <= 0 {
		return
	}
	// SoC node toward steady state Tamb + R*P.
	tss := m.cfg.AmbientC + m.cfg.SoCResistance*math.Max(0, socPowerW)
	alpha := 1 - math.Exp(-dt.Seconds()/m.cfg.SoCTimeConst.Seconds())
	m.socTemp += (tss - m.socTemp) * alpha

	beta := 1 - math.Exp(-dt.Seconds()/m.cfg.CoreTimeConst.Seconds())
	for i := range m.coreRise {
		p := 0.0
		if i < len(corePowersW) {
			p = math.Max(0, corePowersW[i])
		}
		rss := m.cfg.CoreResistance * p
		m.coreRise[i] += (rss - m.coreRise[i]) * beta
	}
}

// SoCTemp returns the SoC node temperature in Celsius.
func (m *Model) SoCTemp() float64 { return m.socTemp }

// CoreTemp returns core i's sensor temperature (SoC node + local rise).
func (m *Model) CoreTemp(i int) float64 {
	if i < 0 || i >= len(m.coreRise) {
		return m.socTemp
	}
	return m.socTemp + m.coreRise[i]
}

// Prewarm sets the SoC node to the given temperature (device already
// in use before the experiment), leaving core offsets at zero.
func (m *Model) Prewarm(tempC float64) {
	if tempC > m.cfg.AmbientC {
		m.socTemp = tempC
	}
}

// Snapshot is the thermal model's warm state: the SoC node temperature
// and every core's local rise, plus the ambient the model references.
type Snapshot struct {
	SoCTemp  float64
	CoreRise []float64
	AmbientC float64
}

// Snapshot captures the thermal state for a simulation checkpoint.
func (m *Model) Snapshot() Snapshot {
	s := Snapshot{SoCTemp: m.socTemp, CoreRise: make([]float64, len(m.coreRise)), AmbientC: m.cfg.AmbientC}
	copy(s.CoreRise, m.coreRise)
	return s
}

// Restore overwrites the thermal state with a snapshot from a model of
// the same core count.
func (m *Model) Restore(s Snapshot) {
	if len(s.CoreRise) != len(m.coreRise) {
		panic("thermal: snapshot core-count mismatch")
	}
	m.socTemp = s.SoCTemp
	copy(m.coreRise, s.CoreRise)
	m.cfg.AmbientC = s.AmbientC
}
