// Package membus is a lint fixture for the detflow cases the call
// graph carries no taint for: a simulation package must not import
// the structured logger (wall-clock timestamps in the fingerprint
// path) and must not touch the monotonic side of the clock package —
// the deterministic Clock interface stays legal.
package membus

import (
	"time"

	"fixture/clock"
	"fixture/obslog" // want `detflow: import of fixture/obslog brings wall-clock logging into simulation package "membus"`
)

// tick uses the deterministic clock — legal, no finding.
func tick(c clock.Clock) time.Duration { return c.Now() }

// manual uses the hand-advanced deterministic clock — also legal.
func manual() time.Duration {
	m := &clock.Manual{T: time.Second}
	return m.Now()
}

// latency smuggles monotonic time into the simulation: every use of
// the Mono side is its own finding — the static call as taint, the
// type references and the interface call by name.
func latency(mc clock.MonoClock) clock.MonoTime { // want `detflow: reference to clock.MonoClock reads the monotonic wall clock inside simulation package "membus"` `detflow: reference to clock.MonoTime reads the monotonic wall clock inside simulation package "membus"`
	c := clock.MonoOr(mc) // want `detflow: call to clock\.MonoOr reaches a nondeterministic input \(clock\.MonoOr \(monotonic wall clock\)\) from simulation package "membus"`
	return c.MonoNow()    // want `detflow: reference to clock.MonoNow reads the monotonic wall clock inside simulation package "membus"`
}

// stamp logs from inside the kernel — the import already flagged the
// package; the chained calls themselves are ordinary method calls and
// produce no further findings.
func stamp(l *obslog.Logger) {
	l.Info().Msg("quantum")
}
