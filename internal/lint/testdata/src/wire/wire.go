// Package wire is a lint fixture for the widened maporder scope: the
// wire codec is outside the simulation set, but a map-ordered loop
// there would emit frames in a per-run order and break the transport's
// byte-equivalence contract, so maporder applies. The detflow rule
// must NOT apply — the real client keeps wall-clock deadlines.
package wire

import (
	"sort"
	"time"
)

// flushOrder is the shape the widened scope exists to catch: pending
// frame ids drained in map order would put cells on the wire in a
// per-run order.
func flushOrder(pending map[uint64][]byte) [][]byte {
	var frames [][]byte
	for _, p := range pending { // want `maporder: map iteration order is randomized and this loop writes to frames, which is not a map or an iteration-local`
		frames = append(frames, p)
	}
	return frames
}

// flushSorted is the legal idiom: accumulate, then sort by id before
// anything observes the order.
func flushSorted(pending map[uint64][]byte) [][]byte {
	ids := make([]uint64, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	frames := make([][]byte, 0, len(ids))
	for _, id := range ids {
		frames = append(frames, pending[id])
	}
	return frames
}

// deadline uses wall-clock time, which the detflow rule bans in
// simulation packages; wire is maporder-only, so no finding here.
func deadline(timeout time.Duration) time.Time {
	return time.Now().Add(timeout)
}
