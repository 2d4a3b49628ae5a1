// Package fidelity is a lint fixture mirroring the sampled-mode phase
// detection package: its base name puts it inside the detflow package
// set, and it reintroduces the regressions that would corrupt
// sampled-mode reproducibility — a wall-clock read in the detector and
// a process-global RNG draw in the sampling cadence.
package fidelity

import (
	"math/rand"
	"time"
)

// observeAt reintroduces a wall-clock timestamp on phase observations:
// sampled runs would stop being a pure function of (config, seed).
func observeAt() int64 {
	return time.Now().UnixNano() // want `detflow: call to time.Now reads a nondeterministic input inside simulation package "fidelity"`
}

// jitterCadence reintroduces random sampling cadence from the
// process-global RNG, which two identically-seeded runs do not share.
func jitterCadence(interval int) int {
	return interval + rand.Intn(4) // want `detflow: call to rand\.Intn \(process-global RNG\) reads a nondeterministic input inside simulation package "fidelity"`
}

// seededSignature is the legal pattern: an explicit-seed RNG. Nothing
// here may be flagged.
func seededSignature(seed int64, n int) uint64 {
	r := rand.New(rand.NewSource(seed))
	var h uint64 = 1469598103934665603
	for i := 0; i < n; i++ {
		h = (h ^ uint64(r.Int63())) * 1099511628211
	}
	return h
}
