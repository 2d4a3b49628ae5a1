// Package fidelity implements the sampled-fidelity phase layer: a
// quantized per-slice phase signature over the machine's measured
// activity, and a streaming detector that decides — slice by slice —
// whether the simulation is inside a stable phase whose remaining
// slices can be extrapolated from measured rates instead of simulated
// in detail (Pac-Sim-style live sampling, mapped onto DORA's 1 ms
// slice loop).
//
// Everything here is a pure function of slice statistics that are
// themselves pure functions of the seeded configuration, so sampled
// runs stay bit-identical across hosts and worker counts.
package fidelity

import (
	"fmt"

	"dora/internal/soc"
)

// Mode selects the simulation fidelity.
type Mode int

const (
	// Exact simulates every sampled reference through the cache
	// hierarchy (the default; the golden campaign fingerprint is
	// pinned to it).
	Exact Mode = iota
	// Sampled simulates detailed slices only at phase boundaries and
	// on a periodic cadence, extrapolating the rest from measured
	// rates.
	Sampled
)

// String names the mode as spelled on -fidelity flags and in request
// schemas.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Sampled:
		return "sampled"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -fidelity flag or request-field value. The empty
// string means Exact, matching the opt-in contract everywhere the
// knob is threaded.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return Exact, nil
	case "sampled":
		return Sampled, nil
	default:
		return Exact, fmt.Errorf("fidelity: unknown mode %q (want exact or sampled)", s)
	}
}

// Params tunes the sampled-mode detector.
type Params struct {
	// Interval is the detailed-slice cadence inside a stable phase:
	// one slice in Interval is simulated in detail, the rest are
	// extrapolated. Higher is faster and coarser.
	Interval int
	// Stable is the number of consecutive slices with an equal phase
	// required before extrapolation begins.
	Stable int
}

// DefaultParams returns the calibrated defaults behind the committed
// BENCH_SAMPLED error budget.
func DefaultParams() Params { return Params{Interval: 32, Stable: 2} }

// withDefaults fills unset fields.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Interval <= 1 {
		p.Interval = d.Interval
	}
	if p.Stable < 1 {
		p.Stable = d.Stable
	}
	return p
}

// Phase is one detailed slice's activity, quantized: per core the
// MPKI, stall-fraction and utilization buckets and whether the core is
// executing, plus the bus utilization bucket and the operating
// frequency. Two slices with equal phases are "the same phase" for
// extrapolation purposes. It is a comparable value sized for the
// largest machine soc.Config allows, so computing and comparing phases
// allocates nothing.
type Phase struct {
	cores   [soc.MaxCores]coreBuckets
	bus     uint8
	freqMHz uint16
}

// coreBuckets is one core's part of a Phase.
type coreBuckets struct {
	mpki, stall, util uint8
	active            bool
}

// Signature quantizes one detailed slice's activity into its Phase.
// sliceNs is the accounting-slice length the stats cover; kinds[i] is
// core i's active segment kind (soc.Machine.CoreSegKind).
func Signature(stats *soc.SliceStats, sliceNs int64, kinds []string) Phase {
	var p Phase
	for i := range stats.Cores {
		c, b := &stats.Cores[i], &p.cores[i]
		// MPKI in half-power-of-two buckets.
		mpki := 0.0
		if c.Instructions > 0 {
			mpki = float64(c.L2Miss) * 1000 / float64(c.Instructions)
		}
		b.mpki = logBucket(mpki)
		// Stall fraction and utilization in 1/16 buckets.
		stall := 0.0
		if c.BusyNs > 0 {
			stall = float64(c.StallNs) / float64(c.BusyNs)
		}
		b.stall = bucket(stall * 16)
		b.util = bucket(float64(c.BusyNs) / float64(sliceNs) * 16)
		// Active-kernel mix: whether the core is executing at all.
		// Deliberately NOT the segment kind itself: kernels that
		// alternate short segments (kmeans assign/update) would churn
		// the phase every slice, and the quantized rate buckets above
		// already distinguish behaviorally different segments.
		b.active = kinds[i] != ""
	}
	p.bus = bucket(stats.BusUtil * 32)
	p.freqMHz = uint16(stats.FreqMHz)
	return p
}

// bucket truncates a non-negative scaled value to its bucket index,
// saturating at the largest one.
func bucket(v float64) uint8 {
	if v >= 255 {
		return 255
	}
	return uint8(v)
}

// logBucket quantizes a non-negative value into half-log2 buckets
// without calling math.Log2 on the hot path: bucket k covers
// [2^(k/2)-1, 2^((k+1)/2)-1).
func logBucket(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	b := uint8(0)
	threshold := 1.0
	for v+1 >= threshold && b < 64 {
		b++
		threshold *= 1.4142135623730951
	}
	return b
}

// Detector is the streaming phase detector. Feed it the phase of
// every detailed slice via Observe; between detailed slices, ask
// CanExtrapolate and account extrapolated slices with
// NoteExtrapolated. External events that invalidate the phase (an OPP
// change, a source assignment or completion) are reported with
// ForceDetail.
type Detector struct {
	p           Params
	phase       Phase
	streak      int
	sinceDetail int
}

// NewDetector builds a detector with p (zero fields take defaults).
func NewDetector(p Params) *Detector {
	return &Detector{p: p.withDefaults()}
}

// Observe records a detailed slice's phase. unstable marks slices
// whose measurements are polluted (DVFS switch stall): they reset the
// stability streak without becoming the phase.
func (d *Detector) Observe(ph Phase, unstable bool) {
	d.sinceDetail = 0
	if unstable {
		d.streak = 0
		return
	}
	if ph == d.phase && d.streak > 0 {
		d.streak++
	} else {
		d.phase = ph
		d.streak = 1
	}
}

// CanExtrapolate reports whether the next slice may be fast-forwarded:
// the phase has been stable for Stable consecutive detailed slices and
// the periodic detail cadence is not yet due.
func (d *Detector) CanExtrapolate() bool {
	return d.Stable() && d.sinceDetail < d.p.Interval-1
}

// Stable reports whether the phase has held for Stable consecutive
// detailed slices. When CanExtrapolate is false, it tells a slice run
// for an unstable phase from one run because the cadence is due.
func (d *Detector) Stable() bool { return d.streak >= d.p.Stable }

// NoteExtrapolated accounts one fast-forwarded slice.
func (d *Detector) NoteExtrapolated() {
	d.sinceDetail++
}

// ForceDetail invalidates the current phase: the next slices run in
// detail until stability is re-established. Call it on OPP changes,
// source assignment/completion, and any other event that changes the
// machine's behavior discontinuously.
func (d *Detector) ForceDetail() {
	d.streak = 0
	d.sinceDetail = 0
}

// State is the detector's checkpointable phase state.
type State struct {
	Phase       Phase
	Streak      int
	SinceDetail int
}

// State returns the current phase state, for warm-state checkpoints.
func (d *Detector) State() State {
	return State{Phase: d.phase, Streak: d.streak, SinceDetail: d.sinceDetail}
}

// RestoreState overwrites the phase state with a checkpoint.
func (d *Detector) RestoreState(s State) {
	d.phase, d.streak, d.sinceDetail = s.Phase, s.Streak, s.SinceDetail
}
