package clock

import "time"

// This file is the *serving-path* time source. Unlike Clock (an
// injectable wall clock for simulation-adjacent measurements), Mono
// readings are process-monotonic nanosecond ticks: immune to wall
// clock steps, NTP slews, and leap smearing, which makes them the
// right basis for request latency histograms and rate limiting —
// and exactly the wrong input for anything that feeds the campaign
// fingerprint. The doralint determinism rule bans every clock.Mono*
// identifier inside the simulation/observable packages so serving
// latency can never leak into deterministic observables.

// monoBase anchors MonoTime zero at process start. time.Now carries a
// monotonic reading, and time.Since subtracts on the monotonic part,
// so ticks derived from it never go backwards.
var monoBase = time.Now()

// MonoTime is a monotonic reading: nanoseconds since process start.
// The zero value predates every real reading, so "unset" is testable
// with t == 0.
type MonoTime int64

// Sub returns the duration t-u.
func (t MonoTime) Sub(u MonoTime) time.Duration { return time.Duration(t - u) }

// Nanos returns the reading as raw nanoseconds.
func (t MonoTime) Nanos() int64 { return int64(t) }

// MonoClock is a monotonic time source. The serving layer takes one
// as a dependency (Mono in every real run).
type MonoClock interface {
	// MonoNow returns the current monotonic reading.
	MonoNow() MonoTime
}

// Mono is the real monotonic clock.
type Mono struct{}

// MonoNow returns nanoseconds elapsed since process start, measured
// on the runtime's monotonic clock.
func (Mono) MonoNow() MonoTime { return MonoTime(time.Since(monoBase)) }

// MonoSince returns the duration elapsed on c since start.
func MonoSince(c MonoClock, start MonoTime) time.Duration {
	return c.MonoNow().Sub(start)
}

// MonoOr returns c, or the real Mono clock when c is nil — the idiom
// for optional MonoClock fields defaulting to real time.
func MonoOr(c MonoClock) MonoClock {
	if c == nil {
		return Mono{}
	}
	return c
}
