package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallCfg() Config {
	return Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2, MaxOwners: 2}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Ways: 2, MaxOwners: 1},
		{Name: "npo2line", SizeBytes: 1024, LineBytes: 48, Ways: 2, MaxOwners: 1},
		{Name: "indivisible", SizeBytes: 1000, LineBytes: 64, Ways: 2, MaxOwners: 1},
		{Name: "npo2sets", SizeBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2, MaxOwners: 1},
		{Name: "owners", SizeBytes: 1024, LineBytes: 64, Ways: 2, MaxOwners: 0},
		{Name: "17ways", SizeBytes: 64 * 17, LineBytes: 64, Ways: 17, MaxOwners: 1},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should fail validation", c.Name)
		}
	}
	// 16 ways, one recency word per set, is the largest legal set.
	widest := Config{Name: "16ways", SizeBytes: 64 * 16, LineBytes: 64, Ways: MaxWays, MaxOwners: 1}
	if err := widest.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, smallCfg())
	if c.Access(0x1000, 0) {
		t.Fatal("first access must miss")
	}
	if !c.Access(0x1000, 0) {
		t.Fatal("second access must hit")
	}
	// Same line, different offset: still a hit.
	if !c.Access(0x1000+63, 0) {
		t.Fatal("same-line access must hit")
	}
	// Adjacent line: miss.
	if c.Access(0x1000+64, 0) {
		t.Fatal("next-line access must miss")
	}
	st := c.Stats(0)
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 1024 B / 64 B / 2 ways => 8 sets. Addresses with the same set
	// index differ by 8*64 = 512 bytes.
	c := mustNew(t, smallCfg())
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, 0) // install a
	c.Access(b, 0) // install b (set full)
	c.Access(a, 0) // touch a; b is now LRU
	c.Access(d, 0) // evicts b
	if !c.Access(a, 0) {
		t.Fatal("a must survive (recently used)")
	}
	if c.Access(b, 0) {
		t.Fatal("b must have been evicted as LRU")
	}
}

func TestInterferenceCounters(t *testing.T) {
	c := mustNew(t, smallCfg())
	// Owner 0 fills one set (2 ways); owner 1 then thrashes it.
	c.Access(0, 0)
	c.Access(512, 0)
	c.Access(1024, 1) // evicts owner 0's LRU line
	c.Access(1536, 1) // evicts the other
	s0, s1 := c.Stats(0), c.Stats(1)
	if s0.EvictedByOther != 2 {
		t.Fatalf("owner0 EvictedByOther = %d, want 2", s0.EvictedByOther)
	}
	if s1.EvictedOther != 2 {
		t.Fatalf("owner1 EvictedOther = %d, want 2", s1.EvictedOther)
	}
	// Self-eviction does not count as interference.
	c2 := mustNew(t, smallCfg())
	c2.Access(0, 0)
	c2.Access(512, 0)
	c2.Access(1024, 0)
	if st := c2.Stats(0); st.EvictedByOther != 0 || st.EvictedOther != 0 {
		t.Fatalf("self-eviction counted as interference: %+v", st)
	}
}

func TestSharedCacheInterferenceRaisesMisses(t *testing.T) {
	// A working set that fits alone must start missing when a second
	// owner streams through the cache — the paper's core mechanism.
	cfg := Config{Name: "l2", SizeBytes: 64 * 1024, LineBytes: 64, Ways: 8, MaxOwners: 2}
	solo := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(3))
	workset := make([]uint64, 256) // 16 KB working set
	for i := range workset {
		workset[i] = uint64(i) * 64
	}
	loop := func(c *Cache, withIntruder bool) float64 {
		c.Flush()
		intruderAddr := uint64(1 << 20)
		for it := 0; it < 200; it++ {
			for _, a := range workset {
				c.Access(a, 0)
				if withIntruder {
					// High-intensity streaming intruder: several new
					// lines per victim access, enough pressure to push
					// hot lines out of the LRU stacks.
					for k := 0; k < 4; k++ {
						c.Access(intruderAddr, 1)
						intruderAddr += 64
					}
					_ = rng
				}
			}
		}
		return c.Stats(0).MissRate()
	}
	alone := loop(solo, false)
	together := loop(solo, true)
	if alone > 0.01 {
		t.Fatalf("working set should fit alone: miss rate %v", alone)
	}
	if together < alone+0.05 {
		t.Fatalf("intruder must raise miss rate: alone %v together %v", alone, together)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, 0)
	c.ResetStats()
	if st := c.Stats(0); st.Accesses != 0 {
		t.Fatal("stats not reset")
	}
	if !c.Access(0x40, 0) {
		t.Fatal("contents must survive ResetStats")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, 0)
	c.Flush()
	if c.ValidLines() != 0 {
		t.Fatal("flush must invalidate all lines")
	}
	if c.Access(0x40, 0) {
		t.Fatal("post-flush access must miss")
	}
}

func TestOwnerBoundsPanic(t *testing.T) {
	c := mustNew(t, smallCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range owner must panic")
		}
	}()
	c.Access(0, 5)
}

func TestStatsOutOfRangeOwnerIsZero(t *testing.T) {
	c := mustNew(t, smallCfg())
	if st := c.Stats(99); st.Accesses != 0 {
		t.Fatal("out-of-range Stats must be zero value")
	}
	if st := c.Stats(-1); st.Accesses != 0 {
		t.Fatal("negative Stats must be zero value")
	}
}

func TestTotalStats(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0, 0)
	c.Access(64, 1)
	tot := c.TotalStats()
	if tot.Accesses != 2 || tot.Misses != 2 {
		t.Fatalf("TotalStats = %+v", tot)
	}
}

func TestMissRate(t *testing.T) {
	if (OwnerStats{}).MissRate() != 0 {
		t.Fatal("idle miss rate must be 0")
	}
	if (OwnerStats{Accesses: 4, Misses: 1}).MissRate() != 0.25 {
		t.Fatal("miss rate wrong")
	}
}

// Property: hits + misses == accesses, valid lines <= capacity, and
// owner line counts sum to valid lines.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		cfg := Config{Name: "p", SizeBytes: 4096, LineBytes: 64, Ways: 4, MaxOwners: 3}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		hits := uint64(0)
		total := int(n)%2000 + 1
		for i := 0; i < total; i++ {
			addr := uint64(rng.Intn(1 << 16))
			if c.Access(addr, rng.Intn(3)) {
				hits++
			}
		}
		ts := c.TotalStats()
		if ts.Accesses != uint64(total) || ts.Misses+hits != ts.Accesses {
			return false
		}
		if c.ValidLines() > c.CapacityLines() {
			return false
		}
		sum := 0
		for o := 0; o < 3; o++ {
			sum += c.OwnerLines(o)
		}
		return sum == c.ValidLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a repeated scan of a working set strictly smaller than the
// cache converges to a zero miss rate after the cold pass.
func TestSmallWorkingSetConvergesProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, err := New(Config{Name: "p", SizeBytes: 8192, LineBytes: 64, Ways: 4, MaxOwners: 1})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		nLines := 1 + rng.Intn(32) // <= 25% of the 128-line capacity
		addrs := make([]uint64, nLines)
		for i := range addrs {
			addrs[i] = uint64(i) * 64
		}
		for pass := 0; pass < 3; pass++ {
			for _, a := range addrs {
				c.Access(a, 0)
			}
		}
		st := c.Stats(0)
		return st.Misses == uint64(nLines) // cold misses only
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refStream produces a deterministic mixed-owner reference stream with
// enough footprint pressure to exercise hits, capacity evictions, and
// cross-owner interference.
func refStream(n int) []uint64 {
	addrs := make([]uint64, n)
	lcg := uint64(12345)
	for i := range addrs {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		addrs[i] = (lcg >> 20) % (1 << 20) * 64
	}
	return addrs
}

// TestAccessNMatchesAccess is the batched-path golden determinism
// test: AccessN must be indistinguishable from per-access Access —
// same hit results, same OwnerStats on every owner (including the
// EvictedByOther/EvictedOther interference counters), same victim
// choices (checked via final valid-line census) — for both
// replacement policies and on every hit-scan path (matchPaths).
func TestAccessNMatchesAccess(t *testing.T) {
	for _, repl := range []Replacement{LRU, RandomRepl} {
		name := "lru"
		if repl == RandomRepl {
			name = "random"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Ways: 8,
				MaxOwners: 4, Replacement: repl,
			}
			for _, path := range matchPaths(cfg.Ways) {
				accessNMatchesAccess(t, path, cfg)
			}
		})
	}
}

// accessNMatchesAccess runs one TestAccessNMatchesAccess case with both
// caches' hit scans pinned to path.
func accessNMatchesAccess(t *testing.T, path string, cfg Config) {
	t.Helper()
	one := newOnPath(t, cfg, path)
	batched := newOnPath(t, cfg, path)
	addrs := refStream(40960)
	const blk = 128
	hitsOne := make([]bool, blk)
	hitsN := make([]bool, blk)
	for off := 0; off < len(addrs); off += blk {
		owner := (off / blk) % cfg.MaxOwners
		chunk := addrs[off : off+blk]
		for i, a := range chunk {
			hitsOne[i] = one.Access(a, owner)
		}
		batched.AccessN(owner, chunk, hitsN)
		for i := range chunk {
			if hitsOne[i] != hitsN[i] {
				t.Fatalf("%s: owner %d addr[%d]: Access hit=%v AccessN hit=%v", path, owner, off+i, hitsOne[i], hitsN[i])
			}
		}
	}
	for o := 0; o < cfg.MaxOwners; o++ {
		a, b := one.Stats(o), batched.Stats(o)
		if a != b {
			t.Fatalf("%s: owner %d stats diverge:\n Access  %+v\n AccessN %+v", path, o, a, b)
		}
		if one.OwnerLines(o) != batched.OwnerLines(o) {
			t.Fatalf("%s: owner %d lines diverge: %d vs %d", path, o, one.OwnerLines(o), batched.OwnerLines(o))
		}
	}
	if one.ValidLines() != batched.ValidLines() {
		t.Fatalf("%s: valid lines diverge: %d vs %d", path, one.ValidLines(), batched.ValidLines())
	}
	if one.TotalStats().EvictedByOther == 0 {
		t.Fatal("stream produced no cross-owner evictions; test is not exercising interference")
	}
}

// TestAccessNShortHitsPanics pins the scratch-buffer contract.
func TestAccessNShortHitsPanics(t *testing.T) {
	c, err := New(Config{Name: "l1", SizeBytes: 4096, LineBytes: 64, Ways: 4, MaxOwners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short hits buffer")
		}
	}()
	c.AccessN(0, make([]uint64, 8), make([]bool, 4))
}
