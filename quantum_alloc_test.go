package dora

import (
	"testing"
	"time"

	"dora/internal/cache"
	"dora/internal/soc"
	"dora/internal/workload"
)

// allocCase is one machine setup the kernel allocation guards drive.
// Together the cases reach every non-error statement of the per-slice
// kernel: the segment state machine (settle, opsChunk, segmentGap), the
// touch path (soc access, RefGen.FillBlock, cache access under both
// replacement policies), the fast-forward arms and
// an OPP switch with no tracer attached. each, when set, runs before
// every measured step, inside the measured region.
type allocCase struct {
	name  string
	setup func(testing.TB) (m *soc.Machine, each func())
}

// allocCases lists the setups TestQuantumLoopAllocs and
// TestFidelityHotPathAllocs share.
func allocCases() []allocCase {
	return []allocCase{
		{"co-runner mix", func(t testing.TB) (*soc.Machine, func()) {
			return quantumLoopMachine(t, 1), nil
		}},
		{"LRU L2", func(t testing.TB) (*soc.Machine, func()) {
			cfg := soc.NexusFive()
			cfg.L2Replacement = cache.LRU
			return machineWith(t, cfg, patternSources()), nil
		}},
		{"every RefGen pattern", func(t testing.TB) (*soc.Machine, func()) {
			return machineWith(t, soc.NexusFive(), patternSources()), nil
		}},
		{"zero-ops touches and a source that runs out", func(t testing.TB) (*soc.Machine, func()) {
			// Core 0 issues L1-resident touches with no instructions
			// between them, at an issue rate high enough that a run of
			// them fast-forwards in under a nanosecond; core 1's
			// one-segment source is spent within every step, then idles
			// for the rest of it.
			burst := workload.FromSegments("burst", []workload.Segment{
				{Kind: "burst", Ops: 40_000, Lines: 64, FootprintBytes: 8 << 10, Pattern: workload.Sequential, Base: 0x4000000},
			})
			m := machineWith(t, soc.NexusFive(), []workload.Source{
				workload.Loop(workload.FromSegments("zero-ops", []workload.Segment{
					{Kind: "zero-ops", Lines: 24, FootprintBytes: 4 << 10, Pattern: workload.Sequential, Base: 0x3000000, IPC: 8, IdleNs: 30_000},
				})),
				burst,
			})
			m.SetOPP(soc.NexusFive().OPPs.Max())
			return m, func() {
				burst.Reset()
				if err := m.AssignSource(1, burst); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"OPP switch with no tracer", func(t testing.TB) (*soc.Machine, func()) {
			m := quantumLoopMachine(t, 1)
			opps := soc.NexusFive().OPPs
			lo, hi := opps.Min(), opps.Max()
			return m, func() {
				lo, hi = hi, lo
				m.SetOPP(lo)
			}
		}},
	}
}

// patternSources loops one segment of each access pattern per core —
// the four named patterns plus an out-of-range one — each followed by
// an idle gap; the small footprints make the sequential and strided
// walks wrap within a reference block.
func patternSources() []workload.Source {
	seg := func(kind string, p workload.Pattern, footprint int64, base uint64) workload.Segment {
		return workload.Segment{Kind: kind, Ops: 30_000, Lines: 600, FootprintBytes: footprint,
			Pattern: p, StrideLines: 3, Base: base, IdleNs: 20_000}
	}
	return []workload.Source{
		workload.Loop(workload.FromSegments("walks", []workload.Segment{
			seg("sequential", workload.Sequential, 4<<10, 0x1000000),
			seg("strided", workload.Strided, 8<<10, 0x1100000),
		})),
		workload.Loop(workload.FromSegments("random", []workload.Segment{
			seg("random", workload.Random, 1<<20, 0x1200000),
		})),
		workload.Loop(workload.FromSegments("chase", []workload.Segment{
			seg("chase", workload.PointerChase, 16<<20, 0x2000000),
		})),
		workload.Loop(workload.FromSegments("unknown", []workload.Segment{
			seg("unknown", workload.Pattern(99), 4<<10, 0x3000000),
		})),
	}
}

// machineWith builds a machine from cfg with srcs on cores 0, 1, ...
func machineWith(t testing.TB, cfg soc.Config, srcs []workload.Source) *soc.Machine {
	t.Helper()
	m, err := soc.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		if err := m.AssignSource(i, src); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestQuantumLoopAllocs is the allocation regression guard for the
// simulator's steady-state hot path: once sources are attached and the
// per-core scratch (reference blocks, generators, walk-position
// tables) has warmed up, advancing simulated time must not allocate at
// all, on any branch of the kernel. A nonzero count here means
// something slipped back onto the per-quantum path — fix the path, do
// not relax the guard.
//
// Under the race detector the runtime's allocation accounting is
// instrumented differently, so the strict zero assertion is gated to
// non-race builds; the race CI job still runs the loop for the data-
// race coverage.
func TestQuantumLoopAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, each := tc.setup(t)
			m.Step(20 * time.Millisecond) // warm scratch: blocks, bases, bus windows
			allocs := testing.AllocsPerRun(50, func() {
				if each != nil {
					each()
				}
				m.Step(time.Millisecond)
			})
			if raceEnabled {
				t.Logf("race build: steady-state quantum loop allocs/op = %.1f (strict guard skipped)", allocs)
				return
			}
			if allocs != 0 {
				t.Fatalf("steady-state quantum loop allocates: %.1f allocs per simulated ms (want 0)", allocs)
			}
		})
	}
}
