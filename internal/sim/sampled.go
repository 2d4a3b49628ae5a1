package sim

// Sampled fidelity's part of the page-load driver: the slice stepper
// that runs the phase detector, detailing or extrapolating each slice,
// and the warm-state checkpoints that let runs with the same warmup
// share it.

import (
	"fmt"
	"sync"

	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/perfmon"
	"dora/internal/runcache"
	"dora/internal/soc"
)

// checkpoint is one shared warm state: the machine snapshot plus the
// sim-layer state that shapes post-warmup decisions — the perf-counter
// windows, the governor's internal state, and the phase detector's
// rates and stability streak. Immutable once stored.
type checkpoint struct {
	mach       *soc.MachineSnapshot
	sampler    map[int]perfmon.Counters
	govState   any
	det        fidelity.State
	rates      []soc.CoreRates
	ratesValid bool
	// counts is the warmup's accounting, which a restored run reports
	// as its own.
	counts Counts
}

// CheckpointStore shares warm-state checkpoints across sampled-mode
// runs. It is safe for concurrent use by campaign pool workers; the
// checkpoint content is a pure function of its key, so whichever
// worker warms a key first produces the same bytes any other would
// have.
type CheckpointStore struct {
	mu sync.RWMutex
	m  map[string]*checkpoint
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{m: make(map[string]*checkpoint)}
}

// Len returns the number of warm checkpoints held.
func (s *CheckpointStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

func (s *CheckpointStore) get(key string) *checkpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

func (s *CheckpointStore) put(key string, c *checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; !dup {
		s.m[key] = c
	}
}

// warmKey keys a checkpoint by everything that shapes the warmup: the
// device fingerprint and seed, the co-runner (the only source running
// during warmup — the browser attaches after, which is why the page is
// not part of the key and all of a page sweep shares one warm state),
// the governor's full configuration (StateKey, not Name: every fixed
// governor is named "fixed") and its cadence, the warmup length,
// thermal boundary conditions, and the fidelity mode and parameters.
func warmKey(opts *Options, corunName, govKey string) string {
	return runcache.Key("warm-ckpt", ConfigFingerprint(opts.SoC), opts.Seed,
		corunName, govKey, opts.Warmup, opts.DecisionInterval,
		opts.AmbientC, opts.StartTempC, opts.Fidelity.String(),
		opts.FidelityParams)
}

// sampledStepper advances a sampled run one slice at a time: detailed
// slices feed the phase detector and refresh the per-core rates, and
// slices inside a stable phase are fast-forwarded from those rates. An
// OPP change forces a return to detailed slices; a governor decision
// that keeps the OPP changes nothing the detector measures, so it
// costs no detailed slice.
type sampledStepper struct {
	m          *soc.Machine
	det        *fidelity.Detector
	stats      *soc.SliceStats
	rates      []soc.CoreRates
	kinds      []string
	ratesValid bool
	lastFreq   int
	sliceNs    int64
	// slices counts each slice by how it ran, into the run's Counts.
	slices *SliceCounts
}

func newSampledStepper(m *soc.Machine, opts *Options, slices *SliceCounts) *sampledStepper {
	cores := opts.SoC.Cores
	return &sampledStepper{
		m:        m,
		det:      fidelity.NewDetector(opts.FidelityParams),
		stats:    &soc.SliceStats{Cores: make([]soc.CoreSliceStats, cores)},
		rates:    make([]soc.CoreRates, cores),
		kinds:    make([]string, cores),
		lastFreq: m.OPP().FreqMHz,
		sliceNs:  opts.SoC.SliceNs,
		slices:   slices,
	}
}

// step advances one slice, detailed or extrapolated.
func (s *sampledStepper) step() {
	m := s.m
	if f := m.OPP().FreqMHz; f != s.lastFreq {
		s.det.ForceDetail()
		s.lastFreq = f
	}
	if s.ratesValid && s.det.CanExtrapolate() {
		m.FastForwardSlice(s.rates)
		s.det.NoteExtrapolated()
		s.slices.Extrapolated++
		return
	}
	switch {
	case !s.ratesValid:
		s.slices.NoRates++
	case !s.det.Stable():
		s.slices.Unstable++
	default:
		s.slices.Cadence++
	}
	m.StepSliceStats(s.stats)
	for i := range s.kinds {
		s.kinds[i] = m.CoreSegKind(i)
	}
	s.det.Observe(fidelity.Signature(s.stats, s.sliceNs, s.kinds), s.stats.SwitchStall)
	if !s.stats.SwitchStall {
		for i := range s.rates {
			s.rates[i] = soc.RatesFrom(s.stats.Cores[i])
		}
		s.ratesValid = true
	}
}

// forceDetail reports a phase discontinuity (new or finished sources).
// It does nothing in exact mode, where s is nil.
func (s *sampledStepper) forceDetail() {
	if s != nil {
		s.det.ForceDetail()
	}
}

// warmSlot is one run's entry in a checkpoint store.
type warmSlot struct {
	store *CheckpointStore
	key   string
	snap  governor.Snapshotter
}

// warmSlotFor returns the run's checkpoint slot, or nil when the run
// may not use one: checkpoints are sampled-only, need a governor whose
// state can be snapshotted, and are only sound when nothing observes
// the warmup, since every observer would miss the warmup's samples on
// a checkpoint hit. The run's own Counts travel with the checkpoint.
func warmSlotFor(opts *Options, gov governor.Governor, corunName string) *warmSlot {
	if opts.Fidelity != fidelity.Sampled || opts.Checkpoints == nil ||
		opts.Sink != nil || opts.Tracer != nil || opts.Decisions != nil {
		return nil
	}
	snap, ok := gov.(governor.Snapshotter)
	if !ok {
		return nil
	}
	return &warmSlot{store: opts.Checkpoints, key: warmKey(opts, corunName, snap.StateKey()), snap: snap}
}

// restore loads the slot's checkpoint into the run, its warmup's
// counts into counts, and reports whether there was one. On a miss it
// starts the machine's RNG log, so that save can record the warm
// state. A nil slot restores nothing.
func (w *warmSlot) restore(m *soc.Machine, sampler *perfmon.Sampler, s *sampledStepper, counts *Counts) (bool, error) {
	if w == nil {
		return false, nil
	}
	ck := w.store.get(w.key)
	if ck == nil {
		m.StartRNGLog()
		return false, nil
	}
	if err := m.RestoreSnapshot(ck.mach); err != nil {
		return false, fmt.Errorf("sim: restore warm checkpoint: %w", err)
	}
	sampler.Restore(ck.sampler)
	w.snap.RestoreState(ck.govState)
	s.det.RestoreState(ck.det)
	copy(s.rates, ck.rates)
	s.ratesValid = ck.ratesValid
	s.lastFreq = m.OPP().FreqMHz
	*counts = ck.counts
	return true, nil
}

// save stores the run's warm state and the warmup's counts under the
// slot's key and stops the RNG log restore started. A nil slot saves
// nothing.
func (w *warmSlot) save(m *soc.Machine, sampler *perfmon.Sampler, s *sampledStepper, counts Counts) {
	if w == nil {
		return
	}
	w.store.put(w.key, &checkpoint{
		mach:       m.Snapshot(),
		sampler:    sampler.Snapshot(),
		govState:   w.snap.StateSnapshot(),
		det:        s.det.State(),
		rates:      append([]soc.CoreRates(nil), s.rates...),
		ratesValid: s.ratesValid,
		counts:     counts,
	})
	m.StopRNGLog()
}
