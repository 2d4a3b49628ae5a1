// Package membus models the LPDDR3 memory channel of the simulated
// SoC: per-transaction (cache-line fill) latency as a function of the
// memory bus frequency and of the aggregate demand from all cores. The
// utilization-dependent queueing delay is the second interference
// mechanism (after shared-L2 evictions) that couples co-scheduled
// applications to web page load time.
//
// The model is windowed: the simulation driver accumulates transaction
// counts per owner during a window, then calls EndWindow; the resulting
// utilization sets the queueing delay applied in the next window
// (single-step relaxation, avoiding a fixed-point solve per window).
package membus

import (
	"errors"
	"fmt"
	"time"
)

// Config describes the memory channel.
type Config struct {
	// LineBytes is the transaction size (one cache-line fill).
	LineBytes int
	// BaseLatency is the unloaded DRAM access latency (row activate +
	// CAS), independent of bus frequency.
	BaseLatency time.Duration
	// BytesPerSecPerMHz converts the bus clock into peak bandwidth:
	// peak = BusFreqMHz * BytesPerSecPerMHz. A dual-channel 32-bit DDR
	// interface moves 16 bytes per clock-MHz-second: at 933 MHz this
	// gives ~14.9 GB/s, matching LPDDR3-1866.
	BytesPerSecPerMHz float64
	// MaxUtilization clamps the queueing model short of the pole.
	MaxUtilization float64
	// EnergyPerByteJ is the access energy per byte transferred.
	EnergyPerByteJ float64
	// IdlePowerW is the DRAM+controller background power.
	IdlePowerW float64
	// MaxOwners bounds per-requestor accounting.
	MaxOwners int
}

// DefaultLPDDR3 returns the configuration used for the Nexus 5's 2 GB
// LPDDR3 channel.
func DefaultLPDDR3() Config {
	return Config{
		LineBytes:   64,
		BaseLatency: 100 * time.Nanosecond,
		// Achievable CPU-side bandwidth: the 2x32-bit LPDDR3 channel
		// delivers well under its theoretical peak to the CPU cluster
		// (controller efficiency, display/ISP clients); ~8.4 GB/s at
		// the 933 MHz tier.
		BytesPerSecPerMHz: 9e6,
		MaxUtilization:    0.95,
		EnergyPerByteJ:    50e-12, // ~50 pJ/byte, LPDDR3 class
		IdlePowerW:        0.035,
		MaxOwners:         4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.BaseLatency <= 0 || c.BytesPerSecPerMHz <= 0 {
		return errors.New("membus: non-positive geometry or latency")
	}
	if c.MaxUtilization <= 0 || c.MaxUtilization >= 1 {
		return errors.New("membus: MaxUtilization must be in (0,1)")
	}
	if c.MaxOwners <= 0 {
		return errors.New("membus: MaxOwners must be positive")
	}
	if c.EnergyPerByteJ < 0 || c.IdlePowerW < 0 {
		return errors.New("membus: negative energy parameters")
	}
	return nil
}

// WindowStats reports one accounting window.
type WindowStats struct {
	Duration     time.Duration
	Transactions int64
	// PerOwner aliases a scratch buffer reused by the next EndWindow
	// call (the hot path closes a window every slice and must not
	// allocate); copy it if retained.
	PerOwner    []int64
	Utilization float64 // demanded/peak bandwidth, clamped to MaxUtilization
	EnergyJ     float64 // transfer + idle energy for the window
}

// Bus is the windowed memory channel model.
type Bus struct {
	cfg      Config
	freqMHz  int
	lastUtil float64
	window   []int64
	perOwner []int64 // scratch handed out via WindowStats.PerOwner
}

// New builds a Bus; the initial bus frequency must be set before use.
func New(cfg Config, initialFreqMHz int) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if initialFreqMHz <= 0 {
		return nil, fmt.Errorf("membus: invalid initial frequency %d", initialFreqMHz)
	}
	return &Bus{
		cfg:      cfg,
		freqMHz:  initialFreqMHz,
		window:   make([]int64, cfg.MaxOwners),
		perOwner: make([]int64, cfg.MaxOwners),
	}, nil
}

// SetFreqMHz retargets the bus clock (follows the core OPP's bus tier).
func (b *Bus) SetFreqMHz(mhz int) {
	if mhz > 0 {
		b.freqMHz = mhz
	}
}

// PeakBandwidth returns bytes/second at the current bus frequency.
func (b *Bus) PeakBandwidth() float64 {
	return float64(b.freqMHz) * b.cfg.BytesPerSecPerMHz
}

// Utilization returns the utilization measured in the last completed
// window — the value currently shaping transaction latency.
func (b *Bus) Utilization() float64 { return b.lastUtil }

// TransactionLatency returns the current effective latency of one
// line-fill: base DRAM latency plus transfer time at the current bus
// clock, inflated by an M/M/1-shaped queueing factor driven by the last
// window's utilization.
func (b *Bus) TransactionLatency() time.Duration {
	base := b.cfg.BaseLatency.Seconds() + b.TransferSeconds()
	return time.Duration(base * (1 + b.QueueFactor()) * float64(time.Second))
}

// TransferSeconds returns the line transfer time at the current bus
// clock (the frequency-dependent part of the service time).
func (b *Bus) TransferSeconds() float64 {
	return float64(b.cfg.LineBytes) / b.PeakBandwidth()
}

// QueueFactor returns the current waiting-time multiplier minus one:
// latency = service * (1 + QueueFactor). It grows quadratically at low
// load and diverges toward the (clamped) pole — the standard
// single-server shape.
func (b *Bus) QueueFactor() float64 {
	u := b.lastUtil
	if u > b.cfg.MaxUtilization {
		u = b.cfg.MaxUtilization
	}
	return u * u / (1 - u)
}

// Add records n transactions by owner in the current window.
func (b *Bus) Add(owner int, n int64) {
	if owner < 0 || owner >= len(b.window) {
		panic(fmt.Sprintf("membus: owner %d out of range", owner))
	}
	if n < 0 {
		panic("membus: negative transaction count")
	}
	b.window[owner] += n
}

// EndWindow closes the current accounting window of the given duration,
// computes its utilization and energy, installs the utilization for the
// next window's latency, and resets per-window counters.
func (b *Bus) EndWindow(dur time.Duration) (WindowStats, error) {
	if dur <= 0 {
		return WindowStats{}, errors.New("membus: non-positive window duration")
	}
	var tx int64
	per := b.perOwner
	copy(per, b.window)
	for _, n := range b.window {
		tx += n
	}
	demanded := float64(tx*int64(b.cfg.LineBytes)) / dur.Seconds()
	util := demanded / b.PeakBandwidth()
	if util > b.cfg.MaxUtilization {
		util = b.cfg.MaxUtilization
	}
	energy := float64(tx*int64(b.cfg.LineBytes))*b.cfg.EnergyPerByteJ +
		b.cfg.IdlePowerW*dur.Seconds()

	b.lastUtil = util
	for i := range b.window {
		b.window[i] = 0
	}
	return WindowStats{
		Duration:     dur,
		Transactions: tx,
		PerOwner:     per,
		Utilization:  util,
		EnergyJ:      energy,
	}, nil
}

// Snapshot is a deep copy of the bus's warm state: frequency, the
// utilization estimate the queueing factor feeds on, and the per-owner
// transaction window.
type Snapshot struct {
	FreqMHz  int
	LastUtil float64
	Window   []int64
}

// Snapshot captures the bus state for a simulation checkpoint.
func (b *Bus) Snapshot() Snapshot {
	s := Snapshot{
		FreqMHz:  b.freqMHz,
		LastUtil: b.lastUtil,
		Window:   make([]int64, len(b.window)),
	}
	copy(s.Window, b.window)
	return s
}

// Restore overwrites the bus state with a snapshot from a bus of the
// same owner count.
func (b *Bus) Restore(s Snapshot) {
	if len(s.Window) != len(b.window) {
		panic("membus: snapshot owner-count mismatch")
	}
	b.freqMHz = s.FreqMHz
	b.lastUtil = s.LastUtil
	copy(b.window, s.Window)
}
