//go:build !amd64 || purego

package cache

// vectorGroups is 0 without the amd64 kernel: every cache uses the
// scalar scan.
func vectorGroups(int) int { return 0 }

// tagMatch is never called here, because vectorGroups is always 0.
func tagMatch(*uint64, int, uint64) uint64 { panic("cache: no vector tag match on this build") }
