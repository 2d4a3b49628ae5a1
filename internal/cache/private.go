package cache

import "fmt"

// PrivateWays is the associativity of a Private cache.
const PrivateWays = 4

// emptyWay is the tag of a way that holds no line. A line address is a
// byte address shifted right by at least one bit (NewPrivate refuses
// one-byte lines), so it is at most 1<<63-1 and never equals emptyWay.
const emptyWay = ^uint64(0)

// Private is a single-requestor, 4-way LRU cache: the private L1 of one
// core. Each set is its four line addresses, most recently used first,
// with empty ways (emptyWay) at the back. A hit moves its line to the
// front; a miss puts the line in front and drops the last way. An LRU
// set that fills empty ways before evicting always holds the (at most
// four) most recently used distinct lines of that set, in recency
// order, so a Private gives the same hit for every reference, and the
// same access and miss counts, as a 4-way LRU Cache with one owner —
// without the owner bytes, validity words or recency words that Cache
// keeps for the shared L2.
type Private struct {
	sets     [][PrivateWays]uint64
	setMask  uint64
	lineBits uint
	accesses uint64
	misses   uint64
}

// NewPrivate builds a private cache from cfg, which must describe a
// PrivateWays-way LRU cache with one owner and lines of at least two
// bytes.
func NewPrivate(cfg Config) (*Private, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.Ways != PrivateWays:
		return nil, fmt.Errorf("cache %q: a private cache is %d-way, not %d", cfg.Name, PrivateWays, cfg.Ways)
	case cfg.Replacement != LRU:
		return nil, fmt.Errorf("cache %q: a private cache is LRU", cfg.Name)
	case cfg.MaxOwners != 1:
		return nil, fmt.Errorf("cache %q: a private cache has one owner, not %d", cfg.Name, cfg.MaxOwners)
	case cfg.LineBytes < 2:
		return nil, fmt.Errorf("cache %q: %d-byte lines; a line address could equal the empty-way tag", cfg.Name, cfg.LineBytes)
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * PrivateWays)
	p := &Private{
		sets:    make([][PrivateWays]uint64, nSets),
		setMask: uint64(nSets - 1),
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		p.lineBits++
	}
	p.Flush()
	return p, nil
}

// AccessN simulates one reference per element of addrs, in order,
// writing whether each hit into hits[i]. hits must be at least as long
// as addrs; both are caller-owned scratch, so a batch costs no
// allocation.
func (p *Private) AccessN(addrs []uint64, hits []bool) {
	hits = hits[:len(addrs)] // one bounds check up front
	sets, mask, shift := p.sets, p.setMask, p.lineBits
	misses := p.misses
	for i, a := range addrs {
		line := a >> shift
		s := &sets[line&mask]
		t0, t1, t2, t3 := s[0], s[1], s[2], s[3]
		hit := true
		switch line {
		case t0:
		case t1:
			s[0], s[1] = t1, t0
		case t2:
			s[0], s[1], s[2] = t2, t0, t1
		case t3:
			*s = [PrivateWays]uint64{t3, t0, t1, t2}
		default:
			*s = [PrivateWays]uint64{line, t0, t1, t2}
			misses++
			hit = false
		}
		hits[i] = hit
	}
	p.accesses += uint64(len(addrs))
	p.misses = misses
}

// Stats returns the access and miss counts; a Private has no
// interference counters.
func (p *Private) Stats() OwnerStats {
	return OwnerStats{Accesses: p.accesses, Misses: p.misses}
}

// Flush empties every set and zeroes the counters.
func (p *Private) Flush() {
	for i := range p.sets {
		p.sets[i] = [PrivateWays]uint64{emptyWay, emptyWay, emptyWay, emptyWay}
	}
	p.accesses, p.misses = 0, 0
}

// PrivateSnapshot is a deep copy of a Private's warm state: every set
// in recency order and the counters. Restore on a freshly built
// Private of the same configuration reproduces the donor bit for bit.
type PrivateSnapshot struct {
	Sets             [][PrivateWays]uint64
	Accesses, Misses uint64
}

// Snapshot captures the cache's current warm state.
func (p *Private) Snapshot() PrivateSnapshot {
	return PrivateSnapshot{
		Sets:     append([][PrivateWays]uint64(nil), p.sets...),
		Accesses: p.accesses,
		Misses:   p.misses,
	}
}

// Restore overwrites the cache's state with a snapshot taken from a
// Private of the same geometry. A mismatched geometry is a programming
// error and panics.
func (p *Private) Restore(s PrivateSnapshot) {
	if len(s.Sets) != len(p.sets) {
		panic("cache: private snapshot geometry mismatch")
	}
	copy(p.sets, s.Sets)
	p.accesses, p.misses = s.Accesses, s.Misses
}
