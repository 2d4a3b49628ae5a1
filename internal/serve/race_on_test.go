//go:build race

package serve

// raceEnabled: the race runtime allocates on its own, so allocation
// guards only log under -race.
const raceEnabled = true
