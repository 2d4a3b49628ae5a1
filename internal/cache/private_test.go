package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func mustNewPrivate(t *testing.T, cfg Config) *Private {
	t.Helper()
	p, err := NewPrivate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func privateCfg(sets int) Config {
	return Config{Name: "p", SizeBytes: sets * PrivateWays * 64, LineBytes: 64,
		Ways: PrivateWays, MaxOwners: 1}
}

// checkPrivateState requires every set of p to hold exactly the valid
// lines of the same set of the timestamp model, most recently used
// first, with empty ways behind them, and the counters to agree.
func checkPrivateState(t *testing.T, p *Private, ref *tickCache) {
	t.Helper()
	if got, want := p.Stats(), ref.stats[0]; got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	for set := range p.sets {
		var ways []int
		for w := 0; w < PrivateWays; w++ {
			if ref.validBits[set]&(1<<uint(w)) != 0 {
				ways = append(ways, set*PrivateWays+w)
			}
		}
		sort.Slice(ways, func(i, j int) bool { return ref.lastUse[ways[i]] > ref.lastUse[ways[j]] })
		want := [PrivateWays]uint64{emptyWay, emptyWay, emptyWay, emptyWay}
		for r, i := range ways {
			want[r] = ref.tags[i]
		}
		if p.sets[set] != want {
			t.Fatalf("set %d holds %#x, want %#x", set, p.sets[set], want)
		}
	}
}

// accessPrivate runs one batch through p and the model and requires
// the same hit for every reference.
func accessPrivate(t *testing.T, p *Private, ref *tickCache, addrs []uint64, hits []bool) {
	t.Helper()
	p.AccessN(addrs, hits)
	for i, a := range addrs {
		if want := ref.access(a, 0); hits[i] != want {
			t.Fatalf("ref %d of batch (addr %#x): hit %v, want %v", i, a, hits[i], want)
		}
	}
}

// TestPrivateMatchesTimestampModel is the differential test of Private
// against the per-line timestamp LRU model: random, sequential and
// strided streams, crossing a Flush and a Snapshot/Restore into a
// freshly built cache, must give the same hit vector, counters and
// set contents reference by reference.
func TestPrivateMatchesTimestampModel(t *testing.T) {
	for _, sets := range []int{1, 8} {
		for _, pattern := range []string{"random", "sequential", "strided"} {
			t.Run(fmt.Sprintf("sets%d/%s", sets, pattern), func(t *testing.T) {
				const n, blk = 6000, 50
				cfg := privateCfg(sets)
				p, ref := mustNewPrivate(t, cfg), newTickCache(cfg)
				rng := rand.New(rand.NewSource(int64(sets)))
				addrs := diffStream(pattern, n, sets*PrivateWays, sets, rng)
				hits := make([]bool, blk)
				var accesses, misses uint64
				for off := 0; off < n; off += blk {
					switch off {
					case n / 3:
						checkPrivateState(t, p, ref)
						st := p.Stats()
						accesses, misses = st.Accesses, st.Misses
						p.Flush()
						ref.flush()
					case 2 * n / 3:
						checkPrivateState(t, p, ref)
						snap := p.Snapshot()
						p = mustNewPrivate(t, cfg)
						p.Restore(snap)
						if !reflect.DeepEqual(p.Snapshot(), snap) {
							t.Fatal("restored cache differs from its snapshot")
						}
					}
					accessPrivate(t, p, ref, addrs[off:off+blk], hits)
				}
				checkPrivateState(t, p, ref)
				st := p.Stats()
				accesses += st.Accesses
				misses += st.Misses
				if misses == 0 || misses == accesses {
					t.Fatalf("%d misses in %d accesses: the stream does not exercise replacement", misses, accesses)
				}
			})
		}
	}
}

// TestNewPrivateRejects pins the geometries a private cache refuses,
// among them one-byte lines, whose line addresses reach the empty-way
// tag, and checks that with two-byte lines the highest line address is
// cached like any other.
func TestNewPrivateRejects(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"invalid":  func(c *Config) { c.SizeBytes = 0 },
		"ways":     func(c *Config) { c.Ways, c.SizeBytes = 8, 8*64 },
		"random":   func(c *Config) { c.Replacement = RandomRepl },
		"owners":   func(c *Config) { c.MaxOwners = 2 },
		"one-byte": func(c *Config) { c.LineBytes, c.SizeBytes = 1, PrivateWays },
	} {
		cfg := privateCfg(2)
		mod(&cfg)
		if _, err := NewPrivate(cfg); err == nil {
			t.Errorf("%s: %+v accepted", name, cfg)
		}
	}
	p := mustNewPrivate(t, Config{Name: "p", SizeBytes: 2 * PrivateWays, LineBytes: 2,
		Ways: PrivateWays, MaxOwners: 1})
	hits := make([]bool, 3)
	p.AccessN([]uint64{^uint64(0), ^uint64(0) - 1, 0}, hits)
	if want := []bool{false, true, false}; !reflect.DeepEqual(hits, want) {
		t.Fatalf("hits %v, want %v", hits, want)
	}
}

// FuzzPrivateL1 drives a Private and the timestamp model with one
// stream decoded from data: 0xFF flushes both, 0xFE moves the cache's
// state through Snapshot into a fresh cache, 0xFD ends a batch, and any
// other byte b is a reference to byte address 32*b (two bytes per line,
// 127 lines), complemented into the top of the address space when high
// is set. setsLog picks 1 to 8 sets.
func FuzzPrivateL1(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 8, 0, 10, 2, 0xFD, 12, 0}, uint8(0), false)
	f.Add([]byte{0, 16, 32, 48, 64, 0xFF, 0, 16, 0xFE, 16, 80, 0, 96, 32}, uint8(1), false)
	f.Add([]byte{1, 9, 17, 25, 33, 41, 1, 0xFE, 9, 0xFD, 200, 1}, uint8(3), true)
	f.Fuzz(func(t *testing.T, data []byte, setsLog uint8, high bool) {
		cfg := privateCfg(1 << (setsLog % 4))
		p, ref := mustNewPrivate(t, cfg), newTickCache(cfg)
		var addrs []uint64
		flushBatch := func() {
			accessPrivate(t, p, ref, addrs, make([]bool, len(addrs)))
			addrs = addrs[:0]
		}
		for _, b := range data {
			switch b {
			case 0xFF:
				flushBatch()
				p.Flush()
				ref.flush()
			case 0xFE:
				flushBatch()
				snap := p.Snapshot()
				p = mustNewPrivate(t, cfg)
				p.Restore(snap)
			case 0xFD:
				flushBatch()
			default:
				a := uint64(b) * 32
				if high {
					a = ^a
				}
				addrs = append(addrs, a)
			}
		}
		flushBatch()
		checkPrivateState(t, p, ref)
	})
}
