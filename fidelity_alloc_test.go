package dora

import (
	"testing"
	"time"

	"dora/internal/fidelity"
	"dora/internal/soc"
)

// TestFidelityHotPathAllocs is the allocation regression guard for the
// sampled-mode inner loops: computing a phase signature, feeding the
// detector, and fast-forwarding a slice run once per simulated
// millisecond, so any allocation there shows up as a per-slice heap
// churn the sampling speedup exists to avoid. It drives the sampled
// stepper's loop over every allocCases setup: the OPP-switch case feeds
// the detector unstable slices, and the zero-ops case fast-forwards
// touch cycles shorter than a nanosecond. As with
// TestQuantumLoopAllocs, the strict zero assertion is gated to non-race
// builds.
func TestFidelityHotPathAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, each := tc.setup(t)
			m.Step(20 * time.Millisecond) // warm scratch: blocks, bases, bus windows

			cores := soc.NexusFive().Cores
			stats := &soc.SliceStats{Cores: make([]soc.CoreSliceStats, cores)}
			kinds := make([]string, cores)
			rates := make([]soc.CoreRates, cores)
			det := fidelity.NewDetector(fidelity.DefaultParams())

			allocs := testing.AllocsPerRun(50, func() {
				if each != nil {
					each()
				}
				m.StepSliceStats(stats)
				for i := range kinds {
					kinds[i] = m.CoreSegKind(i)
				}
				det.Observe(fidelity.Signature(stats, int64(time.Millisecond), kinds), stats.SwitchStall)
				if !stats.SwitchStall {
					for i := range rates {
						rates[i] = soc.RatesFrom(stats.Cores[i])
					}
				}
				if det.CanExtrapolate() {
					m.FastForwardSlice(rates)
					det.NoteExtrapolated()
				}
			})
			if raceEnabled {
				t.Logf("race build: sampled hot path allocs/op = %.1f (strict guard skipped)", allocs)
				return
			}
			if allocs != 0 {
				t.Fatalf("sampled-mode hot path allocates: %.1f allocs per simulated slice (want 0)", allocs)
			}
		})
	}
}
