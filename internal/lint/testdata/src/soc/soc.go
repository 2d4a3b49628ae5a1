// Package soc is a lint fixture mirroring the simulator package: its
// base name puts it inside the detflow/maporder package set, and it
// reintroduces the real regression detflow must catch — a wall-clock
// read in the simulation core — plus the other direct sources.
package soc

import (
	"math/rand"
	"os"
	"time"
)

// bootNs reads the wall clock in a package-level initializer, which no
// call-graph node owns.
var bootNs = time.Now().UnixNano() // want `detflow: call to time.Now reads a nondeterministic input inside simulation package "soc"`

// stamp reintroduces the wall-clock read the clock-injection refactor
// removed from the real soc package.
func stamp() int64 {
	return time.Now().UnixNano() // want `detflow: call to time.Now reads a nondeterministic input inside simulation package "soc"`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `detflow: call to time.Since reads a nondeterministic input inside simulation package "soc"`
}

func mode() string {
	return os.Getenv("DORA_MODE") // want `detflow: call to os.Getenv reads a nondeterministic input inside simulation package "soc"`
}

func jitter() int {
	return rand.Int() // want `detflow: call to rand\.Int \(process-global RNG\) reads a nondeterministic input inside simulation package "soc"`
}

// seeded is the legal pattern: a generator built from an explicit
// seed, drawn from via methods. Neither call may be flagged.
func seeded(seed int64) int64 {
	r := rand.New(rand.NewSource(seed))
	return r.Int63()
}
