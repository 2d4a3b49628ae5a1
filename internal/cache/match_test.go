package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// matchPaths names the hit-scan paths a cache of the given
// associativity can take on this build: "scalar" always, and "vector"
// when vectorGroups offers the AVX2 match.
func matchPaths(ways int) []string {
	if vectorGroups(ways) == 0 {
		return []string{"scalar"}
	}
	return []string{"vector", "scalar"}
}

// newOnPath builds a cache whose hit scan is pinned to path.
func newOnPath(t *testing.T, cfg Config, path string) *Cache {
	t.Helper()
	c := mustNew(t, cfg)
	if path == "scalar" {
		c.groups = 0
	}
	return c
}

// refMask is the reference match mask: bit w set when tags[w] == line.
func refMask(tags []uint64, line uint64) uint64 {
	var m uint64
	for w, t := range tags {
		if t == line {
			m |= 1 << uint(w)
		}
	}
	return m
}

// checkMatch checks both matchers on the middle one of three adjacent
// sets of ways tags each (sets[ways:2*ways]), the way access calls them:
// the vector mask must equal the reference mask of that set alone, so
// neither a neighbour's tags nor a stale tag under a clear valid bit
// may show, and the scalar scan must return its lowest valid bit.
func checkMatch(t *testing.T, sets []uint64, ways int, line, vb uint64) {
	t.Helper()
	vb &= uint64(1)<<uint(ways) - 1
	tags := sets[ways : 2*ways]
	want := refMask(tags, line) & vb
	if got := scanMatch(tags, line, vb); got != want&-want {
		t.Fatalf("%d ways, line %#x, valid %#x, tags %#x: scalar %#x, want %#x", ways, line, vb, tags, got, want&-want)
	}
	if g := vectorGroups(ways); g != 0 {
		if got := tagMatch(&tags[0], g, line); got != refMask(tags, line) {
			t.Fatalf("%d ways, line %#x, tags %#x: vector mask %#x, want %#x", ways, line, tags, got, refMask(tags, line))
		}
	}
}

// TestTagMatch pins both matchers on hand-built sets: hits in the first
// and last way of each group, a miss, a stale tag left in an invalid
// way, and neighbouring sets that hold the line address themselves.
func TestTagMatch(t *testing.T) {
	const line = 0x5a5a_0042
	for _, ways := range []int{4, 8, 12, 16} {
		for _, tc := range []struct {
			name   string
			hitWay []int // ways whose tag is line
			stale  []int // ways holding line with the valid bit clear
			valid  uint64
			around bool // neighbouring sets hold line in every way
		}{
			{name: "miss", valid: ^uint64(0)},
			{name: "empty set", valid: 0},
			{name: "hit way 0", hitWay: []int{0}, valid: ^uint64(0)},
			{name: "hit last way", hitWay: []int{ways - 1}, valid: ^uint64(0)},
			{name: "hit way 3", hitWay: []int{3}, valid: ^uint64(0)},
			{name: "hit every group edge", hitWay: []int{ways - 4, ways - 1}, valid: ^uint64(0)},
			{name: "stale tag only", stale: []int{ways - 2}, valid: ^uint64(0)},
			{name: "stale tag below a hit", hitWay: []int{ways - 1}, stale: []int{0}, valid: ^uint64(0)},
			{name: "line in neighbouring sets", valid: ^uint64(0), around: true},
			{name: "hit amid neighbours", hitWay: []int{ways / 2}, valid: ^uint64(0), around: true},
		} {
			t.Run(fmt.Sprintf("ways%d/%s", ways, tc.name), func(t *testing.T) {
				sets := make([]uint64, 3*ways)
				for i := range sets {
					sets[i] = line + uint64(i) + 1 // never line
					if tc.around && (i < ways || i >= 2*ways) {
						sets[i] = line
					}
				}
				vb := tc.valid
				for _, w := range tc.hitWay {
					sets[ways+w] = line
				}
				for _, w := range tc.stale {
					sets[ways+w] = line
					vb &^= 1 << uint(w)
				}
				checkMatch(t, sets, ways, line, vb)
			})
		}
	}
}

// FuzzTagMatch checks the vector mask against the reference mask, and
// the scalar scan against its lowest valid bit, on 4- and 16-way sets
// between two neighbours. Each data byte picks one tag: its low two
// bits pull the tag toward line (0 is line itself), so hits, duplicate
// hits, stale tags and matching neighbours all occur.
func FuzzTagMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, line, vb uint64) {
		for _, ways := range []int{4, 16} {
			sets := make([]uint64, 3*ways)
			for i := range sets {
				var b byte
				if i < len(data) {
					b = data[i]
				}
				sets[i] = line ^ uint64(b&3) ^ uint64(b>>7)<<63
			}
			checkMatch(t, sets, ways, line, vb)
		}
	})
}

// TestMatchPathsKeepIdenticalState drives a vector-path and a
// scalar-path cache with one stream and requires every piece of their
// state to agree — tags, owners, validity and recency words, the
// replacement RNG and the counters — so no result depends on which path
// the host runs.
func TestMatchPathsKeepIdenticalState(t *testing.T) {
	if vectorGroups(16) == 0 {
		t.Skip("no vector tag match on this build")
	}
	for _, repl := range []Replacement{LRU, RandomRepl} {
		for _, ways := range []int{4, 8, 12, 16} {
			t.Run(fmt.Sprintf("repl%d/ways%d", repl, ways), func(t *testing.T) {
				cfg := Config{Name: "s", SizeBytes: 16 * ways * 64, LineBytes: 64,
					Ways: ways, MaxOwners: 4, Replacement: repl}
				vec, sc := newOnPath(t, cfg, "vector"), newOnPath(t, cfg, "scalar")
				rng := rand.New(rand.NewSource(int64(ways)))
				addrs := diffStream("random", 20000, 16*ways, 16, rng)
				hv, hs := make([]bool, 100), make([]bool, 100)
				for off := 0; off < len(addrs); off += 100 {
					owner := (off / 100) % cfg.MaxOwners
					vec.AccessN(owner, addrs[off:off+100], hv)
					sc.AccessN(owner, addrs[off:off+100], hs)
					if !reflect.DeepEqual(hv, hs) {
						t.Fatalf("refs %d..%d: vector hits %v, scalar %v", off, off+99, hv, hs)
					}
				}
				if !reflect.DeepEqual(vec.Snapshot(), sc.Snapshot()) {
					t.Fatal("vector-path and scalar-path caches end in different states")
				}
			})
		}
	}
}
