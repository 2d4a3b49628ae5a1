// Package clock is a lint-fixture stand-in for internal/clock: the
// deterministic side (Clock, Manual) is legal everywhere, while the
// monotonic side (Mono, MonoTime, MonoClock, MonoOr, ManualMono) is
// banned from simulation packages by the detflow analyzer.
package clock

import "time"

// Clock is the deterministic simulation clock — legal in sim packages.
type Clock interface{ Now() time.Duration }

// Manual is a hand-advanced deterministic clock — legal too.
type Manual struct{ T time.Duration }

// Now returns the manually advanced time.
func (m *Manual) Now() time.Duration { return m.T }

// MonoTime is a monotonic reading — banned in sim packages.
type MonoTime int64

// MonoClock is the monotonic clock interface — banned in sim packages.
type MonoClock interface{ MonoNow() MonoTime }

// Mono is the real monotonic clock — banned in sim packages.
type Mono struct{}

// MonoNow reads the process-monotonic clock.
func (Mono) MonoNow() MonoTime { return 0 }

// ManualMono is the test monotonic clock — banned in sim packages.
type ManualMono struct{ T MonoTime }

// MonoNow returns the manually advanced monotonic reading.
func (m *ManualMono) MonoNow() MonoTime { return m.T }

// MonoOr defaults a nil MonoClock — banned in sim packages.
func MonoOr(c MonoClock) MonoClock {
	if c == nil {
		return Mono{}
	}
	return c
}
