package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// tickCache is the reference LRU model the recency stack replaced: one
// last-use timestamp per line from a global tick, and on a miss in a
// full set the way with the smallest timestamp is the victim. It keeps
// the same flat tag/owner/validity layout and random-replacement RNG as
// Cache, so the two must agree on every reference.
type tickCache struct {
	ways, sets int
	random     bool
	lineBits   uint
	tags       []uint64
	lastUse    []uint64
	owners     []int8
	validBits  []uint64
	tick       uint64
	lcg        uint64
	stats      []OwnerStats
}

func newTickCache(cfg Config) *tickCache {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	n := sets * cfg.Ways
	return &tickCache{
		ways: cfg.Ways, sets: sets, random: cfg.Replacement == RandomRepl,
		lineBits:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tags:      make([]uint64, n),
		lastUse:   make([]uint64, n),
		owners:    make([]int8, n),
		validBits: make([]uint64, sets),
		stats:     make([]OwnerStats, cfg.MaxOwners),
	}
}

func (r *tickCache) access(addr uint64, owner int) bool {
	r.tick++
	st := &r.stats[owner]
	st.Accesses++
	line := addr >> r.lineBits
	set := int(line % uint64(r.sets))
	base := set * r.ways
	vb := r.validBits[set]
	for w := 0; w < r.ways; w++ {
		if r.tags[base+w] == line && vb&(1<<uint(w)) != 0 {
			r.lastUse[base+w] = r.tick
			return true
		}
	}
	st.Misses++
	victim := -1
	for w := 0; w < r.ways; w++ {
		if vb&(1<<uint(w)) == 0 {
			victim = w
			break
		}
	}
	if victim < 0 && r.random {
		r.lcg = r.lcg*6364136223846793005 + 1442695040888963407
		victim = int((r.lcg >> 33) % uint64(r.ways))
	} else if victim < 0 {
		oldest := ^uint64(0)
		for w := 0; w < r.ways; w++ {
			if u := r.lastUse[base+w]; u < oldest {
				oldest, victim = u, w
			}
		}
	}
	vi := base + victim
	if vb&(1<<uint(victim)) != 0 && int(r.owners[vi]) != owner {
		r.stats[r.owners[vi]].EvictedByOther++
		st.EvictedOther++
	}
	r.tags[vi] = line
	r.owners[vi] = int8(owner)
	r.lastUse[vi] = r.tick
	r.validBits[set] = vb | 1<<uint(victim)
	return false
}

func (r *tickCache) flush() {
	clear(r.tags)
	clear(r.lastUse)
	clear(r.owners)
	clear(r.validBits)
	clear(r.stats)
	r.tick = 0
}

func (r *tickCache) validLines() int {
	n := 0
	for _, vb := range r.validBits {
		n += bits.OnesCount64(vb)
	}
	return n
}

func (r *tickCache) ownerLines(owner int) int {
	n := 0
	for i, o := range r.owners {
		if r.validBits[i/r.ways]&(1<<uint(i%r.ways)) != 0 && int(o) == owner {
			n++
		}
	}
	return n
}

// diffStream builds a reference stream of n byte addresses over a cache
// of capLines lines in sets sets. Every pattern mixes hits, cold fills
// and capacity evictions.
func diffStream(pattern string, n, capLines, sets int, rng *rand.Rand) []uint64 {
	addrs := make([]uint64, n)
	switch pattern {
	case "random":
		// Footprint twice the capacity: about half the references hit.
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(2*capLines))*64 + uint64(rng.Intn(64))
		}
	case "sequential":
		// Loops slightly larger than the cache (every LRU reference
		// misses) alternate with loops that fit (every one hits).
		i := 0
		for i < n {
			span := capLines + capLines/4 + 1
			if (i/capLines)%2 == 1 {
				span = capLines / 2
			}
			for l := 0; l < span && i < n; l++ {
				addrs[i] = uint64(l) * 64
				i++
			}
		}
	case "strided":
		// A stride of one set's worth of lines maps every reference to
		// set 0; the cycle length random-walks across the associativity
		// so the set alternates between fitting and thrashing.
		ways := capLines / sets
		cycle := 1
		for i := 0; i < n; {
			for l := 0; l < cycle && i < n; l++ {
				addrs[i] = uint64(l*sets) * 64
				i++
			}
			cycle += rng.Intn(3) - 1
			cycle = min(max(cycle, 1), ways+2)
		}
	default:
		panic(pattern)
	}
	return addrs
}

// TestLRUStackMatchesTimestampModel is the differential test of the
// per-set recency stack against the per-line timestamp model it
// replaced: for every legal associativity, one and four owners, and
// random, sequential and strided streams — crossing a Flush and a
// Snapshot/Restore into a freshly built cache — hit vectors, per-owner
// statistics and line censuses must match reference by reference, on
// every hit-scan path the associativity can take (matchPaths).
func TestLRUStackMatchesTimestampModel(t *testing.T) {
	for _, repl := range []Replacement{LRU, RandomRepl} {
		for ways := 1; ways <= MaxWays; ways++ {
			for _, owners := range []int{1, 4} {
				for _, pattern := range []string{"random", "sequential", "strided"} {
					name := fmt.Sprintf("repl%d/ways%d/owners%d/%s", repl, ways, owners, pattern)
					t.Run(name, func(t *testing.T) {
						for _, path := range matchPaths(ways) {
							t.Run(path, func(t *testing.T) {
								diffAgainstTickModel(t, path, repl, ways, owners, pattern)
							})
						}
					})
				}
			}
		}
	}
}

// diffAgainstTickModel runs one TestLRUStackMatchesTimestampModel case
// with the cache's hit scan pinned to path.
func diffAgainstTickModel(t *testing.T, path string, repl Replacement, ways, owners int, pattern string) {
	const sets, n = 8, 6000
	cfg := Config{Name: "d", SizeBytes: sets * ways * 64, LineBytes: 64,
		Ways: ways, MaxOwners: owners, Replacement: repl}
	c := newOnPath(t, cfg, path)
	ref := newTickCache(cfg)
	rng := rand.New(rand.NewSource(int64(ways*100 + owners)))
	addrs := diffStream(pattern, n, sets*ways, sets, rng)
	check := func(at int) {
		t.Helper()
		for o := 0; o < owners; o++ {
			if got, want := c.Stats(o), ref.stats[o]; got != want {
				t.Fatalf("ref %d owner %d stats %+v, want %+v", at, o, got, want)
			}
			if got, want := c.OwnerLines(o), ref.ownerLines(o); got != want {
				t.Fatalf("ref %d owner %d lines %d, want %d", at, o, got, want)
			}
		}
		if got, want := c.ValidLines(), ref.validLines(); got != want {
			t.Fatalf("ref %d valid lines %d, want %d", at, got, want)
		}
	}
	const blk = 50
	hits := make([]bool, blk)
	for off := 0; off < n; off += blk {
		switch off {
		case n / 3:
			check(off)
			c.Flush()
			ref.flush()
		case 2 * n / 3:
			check(off)
			snap := c.Snapshot()
			c = newOnPath(t, cfg, path)
			c.Restore(snap)
		}
		owner := (off / blk) % owners
		chunk := addrs[off : off+blk]
		// Alternate the batched and the single-reference entry points.
		if (off/blk)%2 == 0 {
			c.AccessN(owner, chunk, hits)
		} else {
			for i, a := range chunk {
				hits[i] = c.Access(a, owner)
			}
		}
		for i, a := range chunk {
			if want := ref.access(a, owner); hits[i] != want {
				t.Fatalf("ref %d (addr %#x, owner %d): hit %v, want %v", off+i, a, owner, hits[i], want)
			}
		}
	}
	check(n)
	if tot := c.TotalStats(); tot.Misses == 0 || tot.Misses == tot.Accesses {
		t.Fatalf("stream is all hits or all misses (%+v); it does not exercise replacement", tot)
	}
}

// TestTouchMovesWayToFront pins the recency-word arithmetic on a
// hand-checked 4-way set.
func TestTouchMovesWayToFront(t *testing.T) {
	c := mustNew(t, Config{Name: "t", SizeBytes: 4 * 64, LineBytes: 64, Ways: 4, MaxOwners: 1})
	if got := c.stack[0]; got != 0x3210 {
		t.Fatalf("fresh stack %#x, want 0x3210", got)
	}
	for _, step := range []struct {
		way  int
		want uint64
	}{
		{2, 0x3102}, // rank 2 to front
		{2, 0x3102}, // already MRU
		{3, 0x1023}, // LRU to front
		{0, 0x1230}, // middle rank
		{1, 0x2301},
	} {
		c.touch(0, step.way)
		if got := c.stack[0]; got != step.want {
			t.Fatalf("touch(%d) = %#x, want %#x", step.way, got, step.want)
		}
	}
}
