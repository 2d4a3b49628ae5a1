//go:build !race

package serve

// raceEnabled reports whether the test binary was built with the race
// detector (see race_on_test.go); TestCacheHitAllocs relaxes its strict
// zero-allocation assertion under instrumentation.
const raceEnabled = false
