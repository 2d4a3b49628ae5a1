package soc

import (
	"math"
	"testing"

	"dora/internal/corun"
	"dora/internal/workload"
)

// refCoverage counts the chunk kinds refAdvanceCore ran, so the
// equivalence test can show it reached every path it claims to cover.
type refCoverage struct {
	unsplit, split, remainder, zeroOps int
}

// refAdvanceCore is the chunk model advanceCore implemented before it
// gained the touch arm: every chunk goes through the general path,
// and a touch's stall is paid on the next loop pass. It is kept here
// only as the reference that TestTouchArmMatchesChunkModel runs
// beside advanceCore.
func refAdvanceCore(m *Machine, i int, budget int64, cov *refCoverage) {
	c := &m.cores[i]
	freqGHz := m.opp.FreqGHz()
	for budget > 0 {
		if c.pendingStall > 0 {
			d := min(c.pendingStall, budget)
			c.pendingStall -= d
			c.counters.BusyNs += d
			c.counters.StallNs += d
			c.sliceBusyNs += d
			c.sliceStallNs += d
			budget -= d
			continue
		}
		if c.idleNs > 0 {
			d := min(c.idleNs, budget)
			c.idleNs -= d
			c.counters.IdleNs += d
			budget -= d
			continue
		}
		if c.remSamples == 0 && c.remOps == 0 && c.chunkOpsRem == 0 {
			if c.src == nil || c.done {
				c.counters.IdleNs += budget
				return
			}
			seg, ok := c.src.Next()
			c.nextCalls++
			if !ok {
				c.done = true
				c.counters.IdleNs += budget
				return
			}
			m.loadSegment(i, c, seg)
			continue
		}

		ipc := c.seg.IPC
		if ipc <= 0 {
			ipc = m.cfg.DefaultIPC
		}
		opsPerNs := ipc * freqGHz

		if c.chunkOpsRem == 0 {
			if c.remSamples > 0 {
				c.chunkOpsRem = c.opsPerSamp
			} else {
				c.chunkOpsRem = c.remOps
				c.remOps = 0
				cov.remainder++
			}
			if c.chunkOpsRem == 0 {
				c.chunkOpsRem = 1
				cov.zeroOps++
			}
		}

		opsPossible := int64(float64(budget) * opsPerNs)
		if opsPossible < 1 {
			opsPossible = 1
		}
		ops := min(c.chunkOpsRem, opsPossible)
		if ops < c.chunkOpsRem {
			cov.split++
		} else if c.remSamples > 0 && c.opsPerSamp > 0 && ops == c.opsPerSamp {
			cov.unsplit++
		}
		d := int64(float64(ops) / opsPerNs)
		if d < 1 {
			d = 1
		}
		d = min(d, budget)
		c.counters.Instructions += uint64(ops)
		c.counters.BusyNs += d
		c.sliceBusyNs += d
		c.chunkOpsRem -= ops
		budget -= d

		if c.chunkOpsRem == 0 {
			if c.remSamples > 0 {
				c.pendingStall += m.access(i, c)
				c.remSamples--
				c.sliceTouches++
			}
			if c.remSamples == 0 && c.remOps == 0 {
				c.idleNs += c.seg.IdleNs
				c.seg.IdleNs = 0
			}
		}
	}
}

// armSegments is a finite stream mixing every chunk shape: memory-bound
// touches with a stall per miss far above the ops between touches,
// one- and two-op touches (ops per touch below the ops rate, so the d0
// clamp to 1 ns matters), more sampled touches than ops (opsPerSamp
// == 0), ops that do not divide evenly by the touches (a pure-compute
// remainder), pure-compute bursts, chunks longer than a quantum, and
// idle gaps.
func armSegments(base uint64) []workload.Segment {
	return []workload.Segment{
		{Kind: "chase", Ops: 2_000_003, Lines: 200_000, FootprintBytes: 8 << 20,
			Pattern: workload.PointerChase, Base: base, IPC: 1.2, IdleNs: 40_000},
		{Kind: "tiny", Ops: 50_000, Lines: 300_000, FootprintBytes: 4 << 20,
			Pattern: workload.Random, Base: base + 1<<28},
		{Kind: "zero", Ops: 700, Lines: 64_000, FootprintBytes: 1 << 20,
			Pattern: workload.Sequential, Base: base + 2<<28, IdleNs: 125_000},
		{Kind: "compute", Ops: 3_000_001, IPC: 2.1},
		{Kind: "long", Ops: 90_000_000, Lines: 400, FootprintBytes: 64 << 10,
			Pattern: workload.Strided, StrideLines: 3, Base: base + 3<<28},
		{Kind: "mid", Ops: 40_000_000, Lines: 40_000, FootprintBytes: 16 << 20,
			Pattern: workload.Random, Base: base + 4<<28, IPC: 0.8, IdleNs: 300_000},
		{Kind: "chase2", Ops: 1_000_000, Lines: 150_000, FootprintBytes: 32 << 20,
			Pattern: workload.PointerChase, Base: base, IPC: 1.7},
	}
}

// armSources builds identical fresh per-core sources: the synthetic
// stream on cores 0 and 1 (offset in phase), a high-intensity co-run
// kernel on core 2, and a low-intensity one on core 3.
func armSources(t *testing.T) []workload.Source {
	t.Helper()
	hi, err := corun.Representative(corun.High)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := corun.Representative(corun.Low)
	if err != nil {
		t.Fatal(err)
	}
	segs := armSegments(0x1000_0000)
	rot := append(append([]workload.Segment(nil), segs[3:]...), segs[:3]...)
	return []workload.Source{
		workload.Loop(workload.FromSegments("arm-a", segs)),
		workload.FromSegments("arm-b", rot),
		workload.Loop(hi.New(7)),
		workload.Loop(lo.New(11)),
	}
}

// TestTouchArmMatchesChunkModel runs advanceCore and refAdvanceCore on
// two identically built machines in lockstep, quantum by quantum, and
// requires the same core state after every quantum and the same clock,
// completion and energy bits after every slice. The schedule switches
// the OPP between steps (each switch stalls the cores), and halfway
// through, the advanceCore machine is replaced by a fresh machine
// restored from its snapshot taken in mid-segment.
func TestTouchArmMatchesChunkModel(t *testing.T) {
	const slices = 240
	freqs := []int{300, 2265, 960, 1574, 652, 1190, 1958}
	for _, tc := range []struct {
		name   string
		jitter float64
	}{
		{"flat-jitter", 0.02},
		{"flat-nojitter", 0},
		{"flat-jitter-high", 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NexusFive()
			cfg.JitterPct = tc.jitter
			build := func() *Machine {
				m, err := New(cfg, 77)
				if err != nil {
					t.Fatal(err)
				}
				for i, src := range armSources(t) {
					if err := m.AssignSource(i, src); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			arm, ref := build(), build()
			arm.StartRNGLog()
			var cov refCoverage
			var carriedQuantum, carriedSlice int
			quanta := cfg.SliceNs / cfg.QuantumNs
			restored := false
			for s := 0; s < slices; s++ {
				if s%9 == 4 {
					f := freqs[(s/9)%len(freqs)]
					opp, err := cfg.OPPs.ByFreq(f)
					if err != nil {
						t.Fatal(err)
					}
					arm.SetOPP(opp)
					ref.SetOPP(opp)
				}
				if s == slices/2 {
					midSeg := false
					for i := range arm.cores {
						c := &arm.cores[i]
						midSeg = midSeg || c.remSamples > 0 && c.chunkOpsRem+c.pendingStall > 0
					}
					if !midSeg {
						t.Fatal("snapshot point is not in mid-segment on any core")
					}
					snap := arm.Snapshot()
					arm = build()
					if err := arm.RestoreSnapshot(snap); err != nil {
						t.Fatal(err)
					}
					restored = true
				}
				lA, sA := arm.beginSlice()
				lB, sB := ref.beginSlice()
				for q := int64(0); q < quanta; q++ {
					for i := range arm.cores {
						arm.advanceCore(i, arm.quantumBudget(i, q, sA))
						refAdvanceCore(ref, i, ref.quantumBudget(i, q, sB), &cov)
						a, b := &arm.cores[i], &ref.cores[i]
						if a.counters != b.counters || a.pendingStall != b.pendingStall ||
							a.chunkOpsRem != b.chunkOpsRem || a.remSamples != b.remSamples ||
							a.remOps != b.remOps || a.idleNs != b.idleNs ||
							a.sliceBusyNs != b.sliceBusyNs || a.sliceStallNs != b.sliceStallNs {
							t.Fatalf("slice %d quantum %d core %d diverged:\narm %+v stall %d chunk %d rem %d/%d idle %d\nref %+v stall %d chunk %d rem %d/%d idle %d",
								s, q, i, a.counters, a.pendingStall, a.chunkOpsRem, a.remSamples, a.remOps, a.idleNs,
								b.counters, b.pendingStall, b.chunkOpsRem, b.remSamples, b.remOps, b.idleNs)
						}
						if b.pendingStall > 0 {
							if q == quanta-1 {
								carriedSlice++
							} else {
								carriedQuantum++
							}
						}
					}
				}
				arm.endSlice(arm.l2TrafficSince(lA))
				ref.endSlice(ref.l2TrafficSince(lB))
				if arm.Now() != ref.Now() {
					t.Fatalf("slice %d: Now %v vs %v", s, arm.Now(), ref.Now())
				}
				if math.Float64bits(arm.EnergyJ()) != math.Float64bits(ref.EnergyJ()) {
					t.Fatalf("slice %d: EnergyJ %v vs %v", s, arm.EnergyJ(), ref.EnergyJ())
				}
				for i := range arm.cores {
					if arm.CoreDone(i) != ref.CoreDone(i) {
						t.Fatalf("slice %d core %d: CoreDone %v vs %v", s, i, arm.CoreDone(i), ref.CoreDone(i))
					}
				}
			}
			if !restored || !arm.CoreDone(1) {
				t.Errorf("restored %v, finite core done %v: schedule too short", restored, arm.CoreDone(1))
			}
			if arm.Switches() != ref.Switches() || arm.Switches() < slices/9 {
				t.Errorf("switches %d vs %d", arm.Switches(), ref.Switches())
			}
			t.Logf("chunks %+v, stall carried across quanta %d, slices %d", cov, carriedQuantum, carriedSlice)
			if cov.unsplit == 0 || cov.split == 0 || cov.remainder == 0 || cov.zeroOps == 0 ||
				carriedQuantum == 0 || carriedSlice == 0 {
				t.Errorf("coverage gap: %+v, stall carried across quanta %d, slices %d",
					cov, carriedQuantum, carriedSlice)
			}
		})
	}
}
