package soc

// This file is the machine half of the sampled-fidelity kernel: the
// per-slice statistics a detailed slice exposes to the phase detector,
// and the fast-forward step that advances a slice analytically from a
// stable phase's measured rates instead of replaying every sampled
// touch through the cache hierarchy.
//
// The extrapolated path deliberately reuses the exact path's segment
// state machine — segments are still fetched from the same sources
// (consuming the same jitter and generator-seed RNG draws), ops and
// sampled touches are consumed in exactly the same counts, and the
// reference generators are skipped forward in lockstep — so workload
// progress and termination stay aligned with exact mode. Only the
// memory system is approximated: instead of probing the L1/L2/bus per
// touch, each touch is charged the phase's measured expected stall and
// expected L2/bus traffic through deterministic fractional-carry
// accumulators. All arithmetic is plain IEEE float/integer math over
// per-core state, so a fixed seed gives bit-identical extrapolation on
// any host or worker count.

// CoreSliceStats is one core's activity during one detailed slice, in
// the machine's scaled-up counter units. The sampled-fidelity layer
// derives phase signatures and extrapolation rates from it.
type CoreSliceStats struct {
	BusyNs       int64
	StallNs      int64
	IdleNs       int64
	Instructions uint64
	Touches      int64 // sampled touches issued
	L2Acc        uint64
	L2Miss       uint64
	BusTx        uint64
}

// SliceStats is the whole-machine record of one detailed slice.
type SliceStats struct {
	Cores []CoreSliceStats
	// BusUtil is the closing bus-window utilization of the slice.
	BusUtil float64
	// FreqMHz is the operating point the slice ran at.
	FreqMHz int
	// SwitchStall reports that a DVFS transition stalled the cores
	// during this slice; such slices are excluded from rate
	// measurement and phase-stability streaks.
	SwitchStall bool
}

// StepSliceStats advances one detailed slice exactly (identical to one
// slice of Step) and fills stats with the per-core activity deltas.
// stats.Cores must be sized to the core count.
func (m *Machine) StepSliceStats(stats *SliceStats) {
	stats.SwitchStall = m.stallAllNs > 0
	stats.FreqMHz = m.opp.FreqMHz
	for i := range m.cores {
		c := &m.cores[i]
		c.sliceTouches = 0
		stats.Cores[i] = CoreSliceStats{
			BusyNs:       c.counters.BusyNs,
			StallNs:      c.counters.StallNs,
			IdleNs:       c.counters.IdleNs,
			Instructions: c.counters.Instructions,
			L2Acc:        c.counters.L2Accesses,
			L2Miss:       c.counters.L2Misses,
			BusTx:        c.counters.BusTx,
		}
	}
	m.stepSlice()
	for i := range m.cores {
		c := &m.cores[i]
		b := stats.Cores[i]
		stats.Cores[i] = CoreSliceStats{
			BusyNs:       c.counters.BusyNs - b.BusyNs,
			StallNs:      c.counters.StallNs - b.StallNs,
			IdleNs:       c.counters.IdleNs - b.IdleNs,
			Instructions: c.counters.Instructions - b.Instructions,
			Touches:      c.sliceTouches,
			L2Acc:        c.counters.L2Accesses - b.L2Acc,
			L2Miss:       c.counters.L2Misses - b.L2Miss,
			BusTx:        c.counters.BusTx - b.BusTx,
		}
	}
	stats.BusUtil = m.bus.Utilization()
}

// CoreRates are one core's measured per-touch expectations inside a
// stable phase, in scaled-up units: the memory stall a sampled touch
// costs, and the L2/bus traffic it generates.
type CoreRates struct {
	StallPerTouchNs float64
	L2AccPerTouch   float64
	L2MissPerTouch  float64
	BusTxPerTouch   float64
}

// RatesFrom derives a core's extrapolation rates from a detailed
// slice's stats. Slices with DVFS switch stall are not valid rate
// sources (their stall mixes PLL ramp time into the memory term);
// callers gate on SliceStats.SwitchStall.
func RatesFrom(s CoreSliceStats) CoreRates {
	if s.Touches == 0 {
		return CoreRates{}
	}
	t := float64(s.Touches)
	return CoreRates{
		StallPerTouchNs: float64(s.StallNs) / t,
		L2AccPerTouch:   float64(s.L2Acc) / t,
		L2MissPerTouch:  float64(s.L2Miss) / t,
		BusTxPerTouch:   float64(s.BusTx) / t,
	}
}

// ffCore holds one core's fractional-charge carries across
// fast-forwarded slices, so long-run totals match the real-valued
// rates even though every individual charge is an integer.
type ffCore struct {
	busyCarry  float64 // bulk-path busy ns not yet charged
	stallCarry float64 // bulk-path stall ns not yet charged
	pendCarry  float64 // scalar-path pending-stall ns not yet charged
	l2Acc      float64 // L2-access counter units not yet flushed
	l2Miss     float64
	busTx      float64 // bus transactions (counter and window units)
}

// FastForwardSlice advances one slice analytically: every core runs
// its segment state machine with memory stalls and traffic charged
// from rates instead of simulated, then the slice's bus window, power
// breakdown, and thermal step close exactly as a detailed slice would.
// rates must be sized to the core count.
func (m *Machine) FastForwardSlice(rates []CoreRates) {
	if m.ff == nil {
		m.ff = make([]ffCore, len(m.cores))
	}

	// A pending DVFS transition stalls every core, exactly as the
	// detailed path applies it in the slice's first quantum. Callers
	// normally force a detailed slice after an OPP change, so this is
	// a rarely taken consistency path.
	switchStall := m.stallAllNs
	m.stallAllNs = 0

	var ffL2Acc float64 // this slice's extrapolated L2 traffic, for power
	for i := range m.cores {
		// The whole slice is one budget: the first quantum's, less the
		// stall, plus the rest.
		budget := m.cfg.SliceNs - m.cfg.QuantumNs + m.quantumBudget(i, 0, switchStall)
		ffL2Acc += m.fastForwardCore(i, budget, &rates[i])
	}

	m.endSlice(ffL2Acc)
}

// fastForwardCore runs core i for up to budget nanoseconds with the
// memory system replaced by rates. It shares advanceCore's segment
// skeleton (settle, opsChunk, segmentGap) and adds a bulk arm that
// advances whole runs of identical chunk+touch cycles in O(1), which is
// what makes an extrapolated slice cheap. Returns the slice's
// extrapolated L2 traffic (scaled counter units) for the power model,
// and flushes whole-unit traffic into the counters and the bus window.
func (m *Machine) fastForwardCore(i int, budget int64, rate *CoreRates) float64 {
	c := &m.cores[i]
	f := &m.ff[i]
	freqGHz := m.opp.FreqGHz()
	var touchesF float64 // touches extrapolated this slice (real-valued charge basis)
	for {
		if budget = m.settle(i, c, budget); budget == 0 {
			break
		}
		opsPerNs := m.opsRate(c, freqGHz)

		// Bulk arm: at a cycle boundary with touches remaining, whole
		// chunk+touch cycles are identical, so n of them advance in one
		// charge instead of n chunk iterations.
		if c.chunkOpsRem == 0 && c.remSamples > 1 {
			opsD := float64(c.opsPerSamp)
			if opsD == 0 {
				opsD = 1 // zero-ops touch still takes an issue slot
			}
			dNs := opsD / opsPerNs
			cycle := dNs + rate.StallPerTouchNs
			if cycle < 1 {
				cycle = 1
			}
			n := int64(float64(budget) / cycle)
			if n > c.remSamples {
				n = c.remSamples
			}
			if n > 1 {
				nF := float64(n)
				busyF := nF*dNs + f.busyCarry
				stallF := nF*rate.StallPerTouchNs + f.stallCarry
				busyI := int64(busyF)
				stallI := int64(stallF)
				f.busyCarry = busyF - float64(busyI)
				f.stallCarry = stallF - float64(stallI)
				t := busyI + stallI
				if t == 0 {
					t, busyI = 1, 1
					f.busyCarry -= 1
				}
				c.counters.Instructions += uint64(n * c.opsPerSamp)
				c.counters.BusyNs += busyI + stallI
				c.counters.StallNs += stallI
				c.sliceBusyNs += busyI + stallI
				c.sliceStallNs += stallI
				budget -= t
				c.remSamples -= n
				touchesF += nF
				ffConsumeTouches(c, n)
				c.segmentGap()
				continue
			}
		}

		// Scalar arm: the detailed path's ops chunk, with the touch
		// stall drawn from the rate.
		var done bool
		if budget, done = m.opsChunk(c, budget, opsPerNs); done {
			if c.remSamples > 0 {
				st := rate.StallPerTouchNs + f.pendCarry
				sti := int64(st)
				f.pendCarry = st - float64(sti)
				c.pendingStall += sti
				c.remSamples--
				touchesF++
				ffConsumeTouches(c, 1)
			}
			c.segmentGap()
		}
	}

	// Flush this slice's real-valued traffic into the integer counters
	// and the bus window, carrying the fractions.
	l2AccF := touchesF * rate.L2AccPerTouch
	f.l2Acc += l2AccF
	f.l2Miss += touchesF * rate.L2MissPerTouch
	f.busTx += touchesF * rate.BusTxPerTouch
	l2i := uint64(f.l2Acc)
	l2mi := uint64(f.l2Miss)
	txi := uint64(f.busTx)
	f.l2Acc -= float64(l2i)
	f.l2Miss -= float64(l2mi)
	f.busTx -= float64(txi)
	c.counters.L2Accesses += l2i
	c.counters.L2Misses += l2mi
	c.counters.BusTx += txi
	if txi > 0 {
		m.bus.Add(i, int64(txi))
	}
	return l2AccF
}

// ffConsumeTouches advances the core's reference stream by n touches
// without simulating them: pre-generated batch entries are dropped
// first, then the generator jumps the remainder, keeping the stream
// bit-aligned with where exact simulation would be.
func ffConsumeTouches(c *coreState, n int64) {
	if b := int64(c.blkLen - c.blkPos); b > 0 {
		if b > n {
			b = n
		}
		c.blkPos += int(b)
		n -= b
	}
	if n > 0 {
		g := min(n, c.genRem)
		c.gen.Skip(uint64(g))
		c.genRem -= g
	}
}
