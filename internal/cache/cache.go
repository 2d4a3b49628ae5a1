// Package cache implements the set-associative cache simulator used for
// the private L1 and shared L2 caches of the simulated MSM8974. The
// shared L2 tracks per-requestor statistics, including lines evicted by
// a different owner than the one that installed them — the mechanism
// behind the memory interference the DORA paper manages.
//
// The geometry is flat: all ways of all sets live in preallocated
// parallel arrays (tags, owners) indexed by set*ways+way, with validity
// kept as one bitmask word per set, so a lookup touches one contiguous
// tag run. On amd64 with AVX2 that run is compared four ways per
// instruction into a match mask (tagMatch), else scanned way by way
// (scanMatch); both find the same way, so results never depend on the
// host. LRU caches keep one recency word per set: nibble r holds the
// way at recency rank r (rank 0 most recent), which is why a cache has
// at most 16 ways. A hit or a fill moves its way to rank 0, found by a
// SWAR nibble search; a miss on a full set evicts the top nibble and
// rotates it to rank 0 with one shift. Random-replacement caches keep
// no recency state at all. This is the layout the simulator's quantum
// loop spends most of its time in.
package cache

import (
	"fmt"
	"math/bits"
)

// Replacement selects the victim-choice policy.
type Replacement int

const (
	// LRU evicts the least-recently-used way.
	LRU Replacement = iota
	// RandomRepl evicts a pseudo-randomly chosen way, as the PL310/
	// Krait-class L2 controllers do. Random replacement is what makes
	// a streaming co-runner evict a victim's hot lines instead of its
	// own cold ones — the interference the paper measures.
	RandomRepl
)

// MaxWays is the largest associativity a Config may declare.
const MaxWays = 16

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	// Ways is the associativity, at most MaxWays: an LRU set's
	// recency order is one 64-bit word of 4-bit way numbers.
	Ways int
	// MaxOwners is the number of distinct requestors (cores) whose
	// statistics are tracked separately.
	MaxOwners int
	// Replacement is the victim policy (default LRU).
	Replacement Replacement
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Ways > MaxWays {
		return fmt.Errorf("cache %q: %d ways, more than %d", c.Name, c.Ways, MaxWays)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.MaxOwners <= 0 {
		return fmt.Errorf("cache %q: MaxOwners must be positive", c.Name)
	}
	return nil
}

// OwnerStats aggregates the per-requestor counters.
type OwnerStats struct {
	Accesses       uint64
	Misses         uint64
	EvictedByOther uint64 // this owner's lines evicted by another owner
	EvictedOther   uint64 // other owners' lines this owner evicted
}

// MissRate returns misses/accesses (0 when idle).
func (s OwnerStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache model with flat line storage.
type Cache struct {
	cfg  Config
	ways int

	// Flat per-line state, indexed set*ways+way. Tags are full line
	// addresses (set bits redundant but harmless). Splitting the line
	// fields into parallel arrays keeps the hit scan inside one or two
	// cache lines of tag words instead of striding over padded structs.
	tags   []uint64
	owners []int8
	// validBits holds one validity bitmask word per set (bit w = way w
	// valid), so the first-invalid-way scan is one TrailingZeros64.
	validBits []uint64
	waysMask  uint64 // low c.ways bits set
	// groups is the number of four-way groups tagMatch compares per
	// set, or 0 when the hit scan is scanMatch (vectorGroups).
	groups int

	// stack holds one LRU recency word per set: nibble r is the way at
	// rank r, rank 0 the most recently used. Every way appears exactly
	// once; ranks never touched since the last Flush keep their
	// initial order below all touched ones. nil under RandomRepl.
	stack     []uint64
	stackMask uint64 // low 4*ways bits set
	topShift  uint   // 4*(ways-1): shift of the LRU rank's nibble

	setMask  uint64
	lineBits uint
	lcg      uint64 // random-replacement state
	stats    []OwnerStats
}

// identityStack is the recency word of a freshly flushed 16-way set;
// smaller associativities mask it to their low 4*ways bits.
const identityStack = 0xFEDCBA9876543210

// nibbleOnes has a 1 in the low bit of every nibble.
const nibbleOnes = 0x1111111111111111

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	nLines := nSets * cfg.Ways
	c := &Cache{
		cfg:       cfg,
		ways:      cfg.Ways,
		tags:      make([]uint64, nLines),
		owners:    make([]int8, nLines),
		validBits: make([]uint64, nSets),
		waysMask:  (uint64(1) << uint(cfg.Ways)) - 1,
		groups:    vectorGroups(cfg.Ways),
		stackMask: (uint64(1) << (4 * uint(cfg.Ways))) - 1, // Go: 1<<64 == 0
		topShift:  4 * uint(cfg.Ways-1),
		setMask:   uint64(nSets - 1),
		stats:     make([]OwnerStats, cfg.MaxOwners),
	}
	if cfg.Replacement != RandomRepl {
		c.stack = make([]uint64, nSets)
		c.resetStack()
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// checkOwner panics when owner is outside the configured requestor
// range. It lives outside the per-reference functions so the formatted
// panic message does not pull fmt into their bodies.
func (c *Cache) checkOwner(owner int) {
	if owner < 0 || owner >= c.cfg.MaxOwners {
		panic(fmt.Sprintf("cache %q: owner %d out of range", c.cfg.Name, owner))
	}
}

// Access simulates one reference by owner at addr. It returns true on a
// hit. On a miss the line is installed, evicting the first invalid way,
// else the policy's victim; if the victim belonged to a different
// owner, interference counters are updated on both sides.
func (c *Cache) Access(addr uint64, owner int) bool {
	c.checkOwner(owner)
	return c.access(addr, owner, &c.stats[owner])
}

// AccessN simulates one reference per element of addrs, all by the
// same owner, writing the per-address hit result into hits[i]. It is
// exactly equivalent to calling Access(addrs[i], owner) in order —
// same victims, same statistics, same replacement-policy state — with
// the per-access call and owner-range overhead hoisted out of the
// loop. hits must be at least as long as addrs; both are caller-owned
// scratch, so a quantum's worth of references costs no allocation.
func (c *Cache) AccessN(owner int, addrs []uint64, hits []bool) {
	c.checkOwner(owner)
	hits = hits[:len(addrs)] // one bounds check up front
	st := &c.stats[owner]
	for i, a := range addrs {
		hits[i] = c.access(a, owner, st)
	}
}

// access is the shared per-reference body of Access and AccessN.
func (c *Cache) access(addr uint64, owner int, st *OwnerStats) bool {
	st.Accesses++

	lineAddr := addr >> c.lineBits
	setIdx := lineAddr & c.setMask
	base := int(setIdx) * c.ways
	vb := c.validBits[setIdx]

	var hit uint64
	if c.groups != 0 {
		hit = tagMatch(&c.tags[base], c.groups, lineAddr) & vb
	} else {
		hit = scanMatch(c.tags[base:base+c.ways], lineAddr, vb)
	}
	if hit != 0 {
		if c.stack != nil {
			c.touch(setIdx, bits.TrailingZeros64(hit))
		}
		return true
	}
	st.Misses++

	// Victim: first invalid way, else per policy.
	var victim int
	if inv := ^vb & c.waysMask; inv != 0 {
		victim = bits.TrailingZeros64(inv)
		if c.stack != nil {
			c.touch(setIdx, victim)
		}
	} else if c.stack == nil {
		c.lcg = c.lcg*6364136223846793005 + 1442695040888963407
		victim = int((c.lcg >> 33) % uint64(c.ways))
	} else {
		// The LRU way is the top rank; rotating it to rank 0 is the
		// whole recency update.
		o := c.stack[setIdx]
		victim = int(o >> c.topShift & 0xF)
		c.stack[setIdx] = (o<<4)&c.stackMask | uint64(victim)
	}
	vi := base + victim
	if vb&(1<<uint(victim)) != 0 && int(c.owners[vi]) != owner {
		c.stats[c.owners[vi]].EvictedByOther++
		st.EvictedOther++
	}
	c.tags[vi] = lineAddr
	c.owners[vi] = int8(owner)
	c.validBits[setIdx] = vb | 1<<uint(victim)
	return false
}

// scanMatch is the scalar tag scan: the bit of the first valid way
// whose tag is line, or 0. A line is installed only on a miss, so at
// most one valid way holds it, and the lowest bit of tagMatch's mask
// under vb is the same way.
func scanMatch(tags []uint64, line, vb uint64) uint64 {
	for i, t := range tags {
		if t == line && vb&(1<<uint(i)) != 0 {
			return 1 << uint(i)
		}
	}
	return 0
}

// touch moves way to rank 0 of set's recency word; every way that was
// more recent moves down one rank. The way's rank is the lowest nibble
// of o^(way*nibbleOnes) that is zero, found with the SWAR zero-nibble
// test: the lowest flagged nibble is always exact (a false flag needs a
// borrow from a zero nibble below it), and the unused nibbles at ranks
// >= ways, though zero, lie above the real match even for way 0.
func (c *Cache) touch(set uint64, way int) {
	o := c.stack[set]
	x := o ^ uint64(way)*nibbleOnes
	z := (x - nibbleOnes) &^ x & (nibbleOnes << 3)
	r := uint(bits.TrailingZeros64(z)) &^ 3 // 4*rank
	below := (uint64(1) << r) - 1           // ranks under way's
	c.stack[set] = o&^(below<<4|0xF) | (o&below)<<4 | uint64(way)
}

// resetStack puts every set's recency word in identity order.
func (c *Cache) resetStack() {
	for i := range c.stack {
		c.stack[i] = identityStack & c.stackMask
	}
}

// Stats returns a copy of the counters for owner.
func (c *Cache) Stats(owner int) OwnerStats {
	if owner < 0 || owner >= len(c.stats) {
		return OwnerStats{}
	}
	return c.stats[owner]
}

// TotalStats returns counters summed over all owners.
func (c *Cache) TotalStats() OwnerStats {
	var t OwnerStats
	for _, s := range c.stats {
		t.Accesses += s.Accesses
		t.Misses += s.Misses
		t.EvictedByOther += s.EvictedByOther
		t.EvictedOther += s.EvictedOther
	}
	return t
}

// ResetStats zeroes all counters without disturbing cache contents, so
// sampling windows can be delimited.
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = OwnerStats{}
	}
}

// Flush invalidates all lines and zeroes statistics.
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.owners)
	clear(c.validBits)
	c.resetStack()
	c.ResetStats()
}

// ValidLines counts currently valid lines (used by invariant tests).
func (c *Cache) ValidLines() int {
	n := 0
	for _, vb := range c.validBits {
		n += bits.OnesCount64(vb)
	}
	return n
}

// CapacityLines returns the total number of line slots.
func (c *Cache) CapacityLines() int { return len(c.tags) }

// OwnerLines counts valid lines currently belonging to owner.
func (c *Cache) OwnerLines(owner int) int {
	n := 0
	for set, vb := range c.validBits {
		base := set * c.ways
		for vb != 0 {
			w := bits.TrailingZeros64(vb)
			vb &= vb - 1
			if int(c.owners[base+w]) == owner {
				n++
			}
		}
	}
	return n
}

// Snapshot is a deep copy of a cache's warm state — every tag, owner
// byte, validity word and LRU recency word, the replacement RNG, and
// the per-owner counters. It is the cache's contribution to a
// simulation checkpoint: Restore on a freshly built cache of the same
// configuration reproduces the donor bit for bit.
type Snapshot struct {
	Tags      []uint64
	Owners    []int8
	ValidBits []uint64
	Stack     []uint64 // per-set recency words; nil under RandomRepl
	LCG       uint64
	Stats     []OwnerStats
}

// Snapshot captures the cache's current warm state.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{
		Tags:      make([]uint64, len(c.tags)),
		Owners:    make([]int8, len(c.owners)),
		ValidBits: make([]uint64, len(c.validBits)),
		LCG:       c.lcg,
		Stats:     make([]OwnerStats, len(c.stats)),
	}
	if c.stack != nil {
		s.Stack = make([]uint64, len(c.stack))
		copy(s.Stack, c.stack)
	}
	copy(s.Tags, c.tags)
	copy(s.Owners, c.owners)
	copy(s.ValidBits, c.validBits)
	copy(s.Stats, c.stats)
	return s
}

// Restore overwrites the cache's state with a snapshot taken from a
// cache of the same geometry. Mismatched geometries are a programming
// error and panic rather than silently corrupt the arrays.
func (c *Cache) Restore(s Snapshot) {
	if len(s.Tags) != len(c.tags) || len(s.ValidBits) != len(c.validBits) ||
		len(s.Stack) != len(c.stack) || len(s.Stats) != len(c.stats) {
		panic("cache: snapshot geometry mismatch")
	}
	copy(c.tags, s.Tags)
	copy(c.owners, s.Owners)
	copy(c.validBits, s.ValidBits)
	copy(c.stack, s.Stack)
	c.lcg = s.LCG
	copy(c.stats, s.Stats)
}
