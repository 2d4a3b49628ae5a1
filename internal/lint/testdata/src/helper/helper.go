// Package helper is a detflow fixture. It sits OUTSIDE the simulation
// package set, so detflow never reports the wall-clock read below where
// it stands — only the taint can connect it to a simulation caller two
// hops away.
package helper

import (
	"math/rand"
	"time"
)

// Stamp returns a wall-clock fingerprint: one hop from the caller,
// one more from the source.
func Stamp() int64 { return now() }

// now is the second hop — the actual nondeterministic read.
func now() int64 { return time.Now().UnixNano() }

// NewRand builds a seeded generator — the legal pattern. New and
// NewSource are not taint sources, and methods on the returned
// *rand.Rand are deterministic state machines, so callers of NewRand
// must stay clean.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
