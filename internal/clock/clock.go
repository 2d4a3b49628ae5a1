// Package clock provides the small injectable time source the
// simulation packages use for wall-clock measurements (controller
// overhead timing, progress reporting). The doralint determinism
// analyzer bans direct time.Now/time.Since calls inside those
// packages: every wall-clock read must flow through a Clock so tests
// can substitute a fixed or manually advanced one and stay
// bit-identical across runs.
package clock

import "time"

// Clock is a measurement time source.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Wall is the default clock: the process monotonic wall clock.
type Wall struct{}

// Now implements Clock via time.Now.
func (Wall) Now() time.Time { return time.Now() }

// Since implements Clock via time.Since (monotonic when t carries a
// monotonic reading, as Wall.Now results do).
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// Manual is a test clock that advances only when told to. The zero
// value starts at the zero time; it is not safe for concurrent use.
type Manual struct {
	now time.Time
}

// NewManualAt returns a Manual clock reading t.
func NewManualAt(t time.Time) *Manual { return &Manual{now: t} }

// Now returns the current manual time.
func (m *Manual) Now() time.Time { return m.now }

// Since returns the manual time elapsed since t.
func (m *Manual) Since(t time.Time) time.Duration { return m.now.Sub(t) }

// Advance moves the clock forward by d.
func (m *Manual) Advance(d time.Duration) { m.now = m.now.Add(d) }

// Or returns c, or Wall when c is nil — the idiom for optional Clock
// fields defaulting to real time.
func Or(c Clock) Clock {
	if c == nil {
		return Wall{}
	}
	return c
}
