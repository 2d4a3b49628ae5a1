// Package perfmon provides the hardware-performance-counter view that
// user-space governors read — the equivalent of the paper's perf-based
// sampling on the rooted Nexus 5. Counters are cumulative; a Sampler
// turns them into per-decision-interval windows (deltas), which is what
// DORA's model inputs (L2 MPKI, core utilization) are computed from.
package perfmon

// Counters is a cumulative per-core counter snapshot.
type Counters struct {
	Instructions uint64
	BusyNs       int64 // executing or memory-stalled
	StallNs      int64 // subset of BusyNs stalled on memory
	IdleNs       int64
	L2Accesses   uint64
	L2Misses     uint64
	BusTx        uint64 // memory-bus transactions issued
}

// Sub returns the window delta c - prev. Counters are nominally
// monotone, but a reset (machine rebuild, counter wrap) can leave prev
// above the current snapshot; a raw subtraction would then underflow to
// a near-2^64 delta and poison every derived rate. Each field whose
// snapshot went backwards is treated as freshly reset: the delta is the
// current value itself.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Instructions: subU(c.Instructions, prev.Instructions),
		BusyNs:       subI(c.BusyNs, prev.BusyNs),
		StallNs:      subI(c.StallNs, prev.StallNs),
		IdleNs:       subI(c.IdleNs, prev.IdleNs),
		L2Accesses:   subU(c.L2Accesses, prev.L2Accesses),
		L2Misses:     subU(c.L2Misses, prev.L2Misses),
		BusTx:        subU(c.BusTx, prev.BusTx),
	}
}

// subU subtracts monotone uint64 counters, detecting a reset.
func subU(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// subI does the same for the time-accumulator fields.
func subI(cur, prev int64) int64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// Add accumulates two counter sets (for cluster-level aggregates).
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Instructions: c.Instructions + o.Instructions,
		BusyNs:       c.BusyNs + o.BusyNs,
		StallNs:      c.StallNs + o.StallNs,
		IdleNs:       c.IdleNs + o.IdleNs,
		L2Accesses:   c.L2Accesses + o.L2Accesses,
		L2Misses:     c.L2Misses + o.L2Misses,
		BusTx:        c.BusTx + o.BusTx,
	}
}

// Utilization returns busy/(busy+idle), the cpufreq notion of load.
func (c Counters) Utilization() float64 {
	total := c.BusyNs + c.IdleNs
	if total <= 0 {
		return 0
	}
	return float64(c.BusyNs) / float64(total)
}

// MPKI returns L2 misses per thousand instructions — the paper's
// memory-intensity metric (Table III).
func (c Counters) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.L2Misses) / float64(c.Instructions) * 1000
}

// Sampler converts cumulative counter snapshots into window deltas,
// one stream per core.
type Sampler struct {
	last map[int]Counters
}

// NewSampler returns an empty sampler.
func NewSampler() *Sampler { return &Sampler{last: make(map[int]Counters)} }

// Window returns the delta since the previous call for this core (the
// first call returns the delta from zero) and advances the window.
func (s *Sampler) Window(core int, cur Counters) Counters {
	prev := s.last[core]
	s.last[core] = cur
	return cur.Sub(prev)
}

// Snapshot returns a copy of the sampler's window state, for the
// sampled-fidelity warm-state checkpoints.
func (s *Sampler) Snapshot() map[int]Counters {
	out := make(map[int]Counters, len(s.last))
	for k, v := range s.last {
		out[k] = v
	}
	return out
}

// Restore overwrites the window state with a snapshot (copied; the
// snapshot stays immutable and shareable).
func (s *Sampler) Restore(snap map[int]Counters) {
	s.last = make(map[int]Counters, len(snap))
	for k, v := range snap {
		s.last[k] = v
	}
}
