// Package soc assembles the simulated MSM8974 Snapdragon 800: four
// Krait-class cores with private L1 data caches, the 2 MB shared L2,
// the LPDDR3 memory channel, DVFS, the thermal network, and the device
// power model. Cores execute workload segment streams; their cache-line
// touches flow through the shared hierarchy, so co-scheduled workloads
// interfere exactly the way the paper studies — through L2 evictions
// and memory-bus queueing.
//
// # Sampled-hierarchy methodology
//
// Simulating every reference of multi-second page loads is
// prohibitively slow, so the machine uses standard cache scaling: the
// reference stream is sampled 1-in-2^SampleShift and the cache
// capacities and workload footprints are scaled down by the same
// factor, preserving working-set-to-capacity ratios, miss rates, and
// relative interference pressure. Latency and counter contributions of
// each sampled touch are scaled back up by 2^SampleShift.
package soc

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dora/internal/cache"
	"dora/internal/dvfs"
	"dora/internal/membus"
	"dora/internal/perfmon"
	"dora/internal/power"
	"dora/internal/telemetry"
	"dora/internal/thermal"
	"dora/internal/workload"
)

// Config describes the machine.
type Config struct {
	Cores int

	L1SizeBytes int
	L1Ways      int
	L2SizeBytes int
	L2Ways      int
	LineBytes   int

	// L2HitNs is the shared-L2 hit service time (wall clock).
	L2HitNs float64

	OPPs    *dvfs.Table
	Bus     membus.Config
	Thermal thermal.Config
	Power   power.Config

	// DefaultIPC applies to segments that do not specify one.
	DefaultIPC float64

	// MLP is the memory-level-parallelism divisor applied to miss
	// latency per access pattern (overlapping misses hide latency).
	MLPSequential   float64
	MLPStrided      float64
	MLPRandom       float64
	MLPPointerChase float64

	// SampleShift: simulate 1 in 2^shift line touches (see package doc).
	SampleShift uint

	// SliceNs is the accounting slice (power/thermal/bus window).
	SliceNs int64
	// QuantumNs interleaves cores within a slice for cache fidelity.
	QuantumNs int64

	// JitterPct adds seeded, zero-mean variation to segment work,
	// modelling scheduler and content nondeterminism on a real phone.
	JitterPct float64

	// L2Replacement selects the shared-L2 victim policy. Krait-class
	// controllers use pseudo-random replacement (the default); LRU is
	// available for ablation studies.
	L2Replacement cache.Replacement

	// ThermalTripC is the SoC temperature above which an attached
	// tracer records thermal-throttle events (0 disables).
	ThermalTripC float64
}

// NexusFive returns the calibrated Nexus 5 configuration (Table II).
func NexusFive() Config {
	return Config{
		Cores:       4,
		L1SizeBytes: 16 << 10,
		L1Ways:      4,
		L2SizeBytes: 2 << 20,
		L2Ways:      16,
		LineBytes:   64,
		L2HitNs:     9,
		OPPs:        dvfs.MSM8974(),
		Bus:         membus.DefaultLPDDR3(),
		Thermal:     thermal.DefaultNexus5(),
		Power:       power.DefaultDevice(),
		DefaultIPC:  1.5,

		MLPSequential:   4.0,
		MLPStrided:      3.0,
		MLPRandom:       2.0,
		MLPPointerChase: 1.0,

		SampleShift:   3,
		SliceNs:       1_000_000, // 1 ms
		QuantumNs:     250_000,   // 250 us
		JitterPct:     0.02,
		L2Replacement: cache.RandomRepl,
		ThermalTripC:  75,
	}
}

// MaxCores is the largest core count a Config may have.
const MaxCores = 8

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > MaxCores {
		return errors.New("soc: core count out of range")
	}
	if c.OPPs == nil {
		return errors.New("soc: missing OPP table")
	}
	if c.SliceNs <= 0 || c.QuantumNs <= 0 || c.QuantumNs > c.SliceNs {
		return errors.New("soc: invalid slice/quantum")
	}
	if c.SliceNs%c.QuantumNs != 0 {
		return errors.New("soc: slice must be a multiple of quantum")
	}
	if c.DefaultIPC <= 0 {
		return errors.New("soc: DefaultIPC must be positive")
	}
	if c.L2HitNs <= 0 {
		return errors.New("soc: L2HitNs must be positive")
	}
	if c.MLPSequential < 1 || c.MLPStrided < 1 || c.MLPRandom < 1 || c.MLPPointerChase < 1 {
		return errors.New("soc: MLP factors must be >= 1")
	}
	if c.SampleShift > 8 {
		return errors.New("soc: SampleShift too aggressive")
	}
	if c.JitterPct < 0 || c.JitterPct > 0.2 {
		return errors.New("soc: JitterPct out of range")
	}
	if c.ThermalTripC < 0 {
		return errors.New("soc: ThermalTripC must be >= 0")
	}
	return c.Power.Validate()
}

// refBlock is the reference-batch size: addresses are generated and
// probed through the private L1 this many at a time, into per-core
// scratch reused across quanta and segments.
const refBlock = 256

// coreState tracks one core's execution.
type coreState struct {
	src  workload.Source
	done bool // finite source exhausted

	seg        workload.Segment // segment currently executing
	gen        workload.RefGen  // reinitialized in place per segment
	remSamples int64            // sampled touches left in segment
	opsPerSamp int64            // (scaled-up) ops per sampled touch
	remOps     int64            // ops left (pure-compute segments / remainder)
	idleNs     int64            // pending idle time from segment gaps

	chunkOpsRem  int64 // ops left before the next sampled touch
	pendingStall int64 // stall ns left to pay for the last touch

	// Reference batch: addrBlk/l1Hit hold the next blkLen-blkPos
	// touches of the current segment with their private-L1 results
	// already probed (the L1 is only ever accessed by this core, so
	// probing ahead within a segment is observationally identical to
	// probing at issue time). genRem counts segment touches not yet
	// generated into the block.
	addrBlk []uint64
	l1Hit   []bool
	blkPos  int
	blkLen  int
	genRem  int64

	// posBases/posVals continue sequential/strided walks across
	// segments that revisit the same region (multi-pass kernels): a
	// small base-sorted pair of slices replacing the former
	// map[uint64]uint64, since the handful of distinct region bases a
	// workload touches makes a binary search cheaper than hashing on
	// the per-segment path.
	posBases []uint64
	posVals  []uint64

	// spanKind/spanStartNs track the open trace span for this core's
	// current run of same-kind segments (tracer attached only).
	spanKind    string
	spanStartNs int64

	counters perfmon.Counters

	// Per-slice accumulators for the power model.
	sliceBusyNs  int64
	sliceStallNs int64

	// sliceTouches counts sampled touches issued since the last
	// StepSliceStats reset — the denominator of the per-touch rates the
	// sampled-fidelity extrapolator measures on detailed slices.
	sliceTouches int64

	// nextCalls counts Next() calls on the current source since it was
	// assigned, so a checkpoint restore can replay a freshly built
	// deterministic source to the same position.
	nextCalls int64
}

// Machine is the simulated SoC plus whole-device environment.
type Machine struct {
	cfg    Config
	scale  int64   // 1 << SampleShift
	scaleU uint64  // scale as uint64 (counter increments)
	scaleF float64 // scale as float64 (latency scaling)

	// mlpTab memoizes the per-pattern MLP divisor (indexed by
	// workload.Pattern, out-of-range clamped to pointer-chase), built
	// once at New instead of re-switched per access.
	mlpTab [4]float64
	// l2HitStallNs is the constant scaled-up L2-hit stall.
	l2HitStallNs int64

	// Per-slice hoisted memory-latency terms. Bus utilization and
	// frequency are frozen within a slice (utilization updates at
	// EndWindow, frequency only between Step calls), so the per-pattern
	// miss stall is computed once per slice instead of per miss — with
	// the same float expression shape, keeping results bit-identical.
	missStallNs [4]int64

	l1      []*cache.Cache
	l2      *cache.Cache
	bus     *membus.Bus
	thermal *thermal.Model
	opp     dvfs.OPP

	cores []coreState
	now   int64 // ns
	rng   *rand.Rand
	seed  int64 // construction seed, for checkpoint-restore RNG replay

	// rngLog, when non-nil, records the kind of every shared-RNG draw
	// (jitter normal, generator seed) so a checkpoint restore can replay
	// the stream against a fresh seeded generator. Enabled only while a
	// sampled-fidelity warmup is checkpointable.
	rngLog []byte

	// ff holds the per-core fractional-charge carries of the sampled-
	// fidelity fast-forward path (lazily sized; nil in exact-only runs).
	ff []ffCore

	meter      power.Meter
	lastPower  power.Breakdown
	switches   int
	stallAllNs int64   // pending DVFS-switch stall applied to all cores
	switchEJ   float64 // pending DVFS-switch energy

	sink   *telemetry.Sink
	tracer *telemetry.Tracer

	corePowers []float64 // per-slice scratch for the power/thermal step
	inTrip     bool      // SoC temperature above Config.ThermalTripC
	tripStart  int64     // ns; start of the current trip episode
}

// TraceSample is one per-slice observability record. It is the
// telemetry package's Sample type; the alias preserves the original
// soc-level name.
type TraceSample = telemetry.Sample

// SetSink attaches a telemetry sink receiving one Sample per
// accounting slice (nil detaches).
func (m *Machine) SetSink(s *telemetry.Sink) { m.sink = s }

// SetTracer attaches a span tracer recording per-core segment spans,
// DVFS transitions, and thermal-throttle events (nil detaches).
// Span boundaries are quantized to the accounting slice.
func (m *Machine) SetTracer(t *telemetry.Tracer) { m.tracer = t }

// Tracer returns the attached tracer (nil when tracing is off).
func (m *Machine) Tracer() *telemetry.Tracer { return m.tracer }

// New builds a machine at the lowest OPP, thermally at ambient.
func New(cfg Config, seed int64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scale := int64(1) << cfg.SampleShift
	mkCache := func(name string, size, ways, owners int, repl cache.Replacement) (*cache.Cache, error) {
		scaled := size / int(scale)
		if scaled < cfg.LineBytes*ways {
			scaled = cfg.LineBytes * ways
		}
		// Round set count down to a power of two.
		sets := scaled / (cfg.LineBytes * ways)
		p2 := 1
		for p2*2 <= sets {
			p2 *= 2
		}
		return cache.New(cache.Config{
			Name: name, SizeBytes: p2 * cfg.LineBytes * ways,
			LineBytes: cfg.LineBytes, Ways: ways, MaxOwners: owners,
			Replacement: repl,
		})
	}

	m := &Machine{
		cfg:          cfg,
		scale:        scale,
		scaleU:       uint64(scale),
		scaleF:       float64(scale),
		mlpTab:       [4]float64{cfg.MLPSequential, cfg.MLPStrided, cfg.MLPRandom, cfg.MLPPointerChase},
		l2HitStallNs: int64(cfg.L2HitNs * float64(scale)),
		cores:        make([]coreState, cfg.Cores),
		rng:          rand.New(rand.NewSource(seed)),
		seed:         seed,
		opp:          cfg.OPPs.Min(),
		corePowers:   make([]float64, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := mkCache(fmt.Sprintf("l1-%d", i), cfg.L1SizeBytes, cfg.L1Ways, 1, cache.LRU)
		if err != nil {
			return nil, err
		}
		m.l1 = append(m.l1, l1)
	}
	// Krait-class shared L2s use pseudo-random replacement (the
	// default) — the reason streaming co-runners evict a victim's hot
	// lines.
	l2, err := mkCache("l2", cfg.L2SizeBytes, cfg.L2Ways, cfg.Cores, cfg.L2Replacement)
	if err != nil {
		return nil, err
	}
	m.l2 = l2
	bus, err := membus.New(cfg.Bus, m.opp.BusFreqMHz)
	if err != nil {
		return nil, err
	}
	m.bus = bus
	th, err := thermal.New(cfg.Thermal)
	if err != nil {
		return nil, err
	}
	m.thermal = th
	return m, nil
}

// AssignSource attaches a workload stream to a core (replacing any).
func (m *Machine) AssignSource(core int, src workload.Source) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("soc: core %d out of range", core)
	}
	m.resetCore(core, src)
	return nil
}

// ClearSource idles a core.
func (m *Machine) ClearSource(core int) {
	if core >= 0 && core < len(m.cores) {
		m.resetCore(core, nil)
	}
}

// resetCore closes the core's open trace span and restarts it on src
// (nil idles it) with no segment, no pending work and no walk
// positions; counters and the reference-batch scratch are kept.
func (m *Machine) resetCore(core int, src workload.Source) {
	c := &m.cores[core]
	m.closeSegSpanAt(core, c)
	c.src = src
	c.done = false
	c.seg = workload.Segment{}
	c.remSamples, c.remOps, c.idleNs = 0, 0, 0
	c.chunkOpsRem, c.pendingStall = 0, 0
	c.blkPos, c.blkLen, c.genRem = 0, 0, 0
	c.posBases = c.posBases[:0]
	c.posVals = c.posVals[:0]
	c.nextCalls = 0
	if m.ff != nil {
		m.ff[core] = ffCore{}
	}
}

// CoreDone reports whether the core's finite source has completed.
func (m *Machine) CoreDone(core int) bool {
	if core < 0 || core >= len(m.cores) {
		return true
	}
	c := &m.cores[core]
	if c.src == nil {
		return true
	}
	return c.done && c.remSamples == 0 && c.remOps == 0 &&
		c.chunkOpsRem == 0 && c.idleNs == 0 && c.pendingStall == 0
}

// OPP returns the current operating point.
func (m *Machine) OPP() dvfs.OPP { return m.opp }

// SetOPP switches the cluster frequency; a real switch stalls the
// cores for the PLL/voltage ramp and costs fixed energy. Requests for
// frequencies outside the OPP table are clamped to the nearest valid
// setting at or above the request, as cpufreq does.
func (m *Machine) SetOPP(opp dvfs.OPP) {
	if m.cfg.OPPs.IndexOf(opp.FreqMHz) < 0 {
		opp = m.cfg.OPPs.Ceil(opp.FreqMHz)
	}
	if opp.FreqMHz == m.opp.FreqMHz {
		return
	}
	if m.tracer != nil {
		start := time.Duration(m.now)
		m.tracer.Span("dvfs", fmt.Sprintf("dvfs:%d->%d", m.opp.FreqMHz, opp.FreqMHz),
			telemetry.TidDVFS, start, start+m.cfg.OPPs.SwitchLatency,
			map[string]float64{
				"from_mhz": float64(m.opp.FreqMHz),
				"to_mhz":   float64(opp.FreqMHz),
				"to_v":     opp.VoltageV,
			})
	}
	m.opp = opp
	m.bus.SetFreqMHz(opp.BusFreqMHz)
	m.switches++
	m.stallAllNs += int64(m.cfg.OPPs.SwitchLatency)
	m.switchEJ += m.cfg.OPPs.SwitchEnergyJ
}

// Switches returns the number of frequency transitions so far.
func (m *Machine) Switches() int { return m.switches }

// Now returns the simulated time.
func (m *Machine) Now() time.Duration { return time.Duration(m.now) }

// Counters returns core i's cumulative counters.
func (m *Machine) Counters(core int) perfmon.Counters {
	if core < 0 || core >= len(m.cores) {
		return perfmon.Counters{}
	}
	return m.cores[core].counters
}

// EnergyJ returns whole-device energy integrated since construction.
func (m *Machine) EnergyJ() float64 { return m.meter.EnergyJ() }

// LastPower returns the device power breakdown of the last slice.
func (m *Machine) LastPower() power.Breakdown { return m.lastPower }

// SoCTemp returns the SoC thermal-node temperature.
func (m *Machine) SoCTemp() float64 { return m.thermal.SoCTemp() }

// CoreTemp returns core i's sensor temperature.
func (m *Machine) CoreTemp(i int) float64 { return m.thermal.CoreTemp(i) }

// MaxCoreTemp returns the hottest core sensor.
func (m *Machine) MaxCoreTemp() float64 { return m.thermal.MaxCoreTemp() }

// SetAmbient changes ambient temperature (Fig. 10's experiment).
func (m *Machine) SetAmbient(c float64) { m.thermal.SetAmbient(c) }

// Prewarm starts the SoC at an in-use operating temperature instead of
// cold ambient (phones being benchmarked are already warm).
func (m *Machine) Prewarm(tempC float64) { m.thermal.Prewarm(tempC) }

// Step advances simulated time by d (rounded up to whole slices).
func (m *Machine) Step(d time.Duration) {
	slices := (int64(d) + m.cfg.SliceNs - 1) / m.cfg.SliceNs
	for s := int64(0); s < slices; s++ {
		m.stepSlice()
	}
}

func (m *Machine) stepSlice() {
	quanta := m.cfg.SliceNs / m.cfg.QuantumNs
	l2Before, switchStall := m.beginSlice()
	for q := int64(0); q < quanta; q++ {
		for i := range m.cores {
			m.advanceCore(i, m.quantumBudget(i, q, switchStall))
		}
	}
	m.endSlice(m.l2TrafficSince(l2Before))
}

// l2TrafficSince returns the L2 accesses counted since l2Before, in
// scaled units.
func (m *Machine) l2TrafficSince(l2Before uint64) float64 {
	return float64((m.l2.TotalStats().Accesses - l2Before) * uint64(m.scale))
}

// beginSlice hoists the memory-latency terms that are invariant for the
// whole slice out of the miss path (see the Machine field comments) and
// takes the pending DVFS-switch stall. It returns the L2 access count
// before the slice and the stall to apply in the slice's first quantum.
func (m *Machine) beginSlice() (l2Before uint64, switchStall int64) {
	l2Before = m.l2.TotalStats().Accesses
	lat := m.bus.TransactionLatency().Seconds() * 1e9
	for p := range m.missStallNs {
		m.missStallNs[p] = int64(lat / m.mlpTab[p] * m.scaleF)
	}
	switchStall = m.stallAllNs
	m.stallAllNs = 0
	return l2Before, switchStall
}

// quantumBudget returns core i's run budget for quantum q. A pending
// DVFS stall is applied once, to all cores, in the first quantum, as
// idle-like busy time (the core is halted mid-transition).
func (m *Machine) quantumBudget(i int, q, switchStall int64) int64 {
	budget := m.cfg.QuantumNs
	if q == 0 && switchStall > 0 {
		st := min(switchStall, budget)
		c := &m.cores[i]
		c.counters.BusyNs += st
		c.counters.StallNs += st
		c.sliceBusyNs += st
		c.sliceStallNs += st
		budget -= st
	}
	return budget
}

// endSlice closes the slice: bus window, power, thermal, the clock and
// the per-slice telemetry. l2Acc is the slice's L2 traffic in scaled
// (full-reference) units: counted accesses times the sampling scale
// for a detailed slice, the extrapolated traffic for a fast-forwarded
// one.
func (m *Machine) endSlice(l2Acc float64) {
	slice := time.Duration(m.cfg.SliceNs)
	// Close the bus window: its utilization shapes next-slice latency.
	busWin, _ := m.bus.EndWindow(slice)

	// Power for this slice.
	var bd power.Breakdown
	volt := m.opp.VoltageV
	fHz := m.opp.FreqHz()
	corePowers := m.corePowers
	for i := range m.cores {
		c := &m.cores[i]
		busy := float64(c.sliceBusyNs) / float64(m.cfg.SliceNs)
		stall := 0.0
		if c.sliceBusyNs > 0 {
			stall = float64(c.sliceStallNs) / float64(c.sliceBusyNs)
		}
		p := m.cfg.Power.Core.Dynamic(volt, fHz, busy, stall)
		corePowers[i] = p
		bd.CoreDynamicW += p
		c.sliceBusyNs, c.sliceStallNs = 0, 0
	}
	bd.L2W = l2Acc * m.cfg.Power.L2EnergyPerAccessJ / slice.Seconds()
	bd.UncoreW = m.cfg.Power.UncoreIdleW + (busWin.EnergyJ+m.switchEJ)/slice.Seconds()
	m.switchEJ = 0
	bd.LeakageW = m.cfg.Power.Leakage.Power(volt, m.thermal.SoCTemp())
	bd.BaselineW = m.cfg.Power.BaselineW
	m.lastPower = bd
	m.meter.Record(slice, bd.Total())

	m.thermal.Step(slice, bd.SoC(), corePowers)
	m.now += m.cfg.SliceNs

	if m.tracer != nil && m.cfg.ThermalTripC > 0 {
		m.checkThermalTrip()
	}
	if m.sink != nil {
		m.sink.Publish(TraceSample{
			Now:       time.Duration(m.now),
			FreqMHz:   m.opp.FreqMHz,
			PowerW:    bd.Total(),
			SoCTempC:  m.thermal.SoCTemp(),
			BusUtil:   busWin.Utilization,
			LeakageW:  bd.LeakageW,
			CoreDynW:  bd.CoreDynamicW,
			BaselineW: bd.BaselineW,
		})
	}
}

// checkThermalTrip records thermal-throttle telemetry: an instant
// event when the SoC crosses the trip point, and a span covering each
// above-trip episode once it ends.
func (m *Machine) checkThermalTrip() {
	temp := m.thermal.SoCTemp()
	switch {
	case !m.inTrip && temp >= m.cfg.ThermalTripC:
		m.inTrip = true
		m.tripStart = m.now
		m.tracer.Instant("thermal", "thermal-trip-enter", telemetry.TidThermal,
			time.Duration(m.now), map[string]float64{"temp_c": temp})
	case m.inTrip && temp < m.cfg.ThermalTripC:
		m.inTrip = false
		m.tracer.Span("thermal", "thermal-throttle", telemetry.TidThermal,
			time.Duration(m.tripStart), time.Duration(m.now),
			map[string]float64{"trip_c": m.cfg.ThermalTripC})
	}
}

// FlushTrace closes any open trace spans (per-core segment runs, an
// in-progress thermal episode) at the current simulated time. Call it
// once when a traced run ends.
func (m *Machine) FlushTrace() {
	if m.tracer == nil {
		return
	}
	for i := range m.cores {
		m.closeSegSpanAt(i, &m.cores[i])
	}
	if m.inTrip {
		m.inTrip = false
		m.tracer.Span("thermal", "thermal-throttle", telemetry.TidThermal,
			time.Duration(m.tripStart), time.Duration(m.now),
			map[string]float64{"trip_c": m.cfg.ThermalTripC})
	}
}

// advanceCore runs core i for up to budget nanoseconds of local time.
// All work is split at budget boundaries, so busy/idle accounting stays
// exactly aligned with wall-clock quanta.
func (m *Machine) advanceCore(i int, budget int64) {
	c := &m.cores[i]
	// The OPP cannot change mid-call (SetOPP runs between Step calls),
	// so the frequency term of the ops rate is loop-invariant.
	freqGHz := m.opp.FreqGHz()
	for {
		if budget = m.settle(i, c, budget); budget == 0 {
			return
		}
		opsPerNs := m.opsRate(c, freqGHz)

		// Touch arm: at a chunk boundary with sampled touches left, run
		// whole chunks one pass per touch — opsPerSamp instructions, d0
		// busy ns, the touch, and its stall paid up to the budget. The
		// loop takes only chunks the general path below would run
		// unsplit: for an integer P >= 1, float64(budget)*opsPerNs >= P
		// implies opsPossible >= P, so ops == P and d == d0 <= budget.
		// Split chunks, the pure-compute remainder and zero-ops touches
		// fall through to the general path.
		if c.chunkOpsRem == 0 && c.remSamples > 0 && c.opsPerSamp > 0 {
			pf := float64(c.opsPerSamp)
			d0 := max(1, int64(pf/opsPerNs))
			start, left := budget, c.remSamples
			var stall int64
			for left > 0 && budget >= d0 && float64(budget)*opsPerNs >= pf {
				budget -= d0
				left--
				if st := m.access(i, c); st > 0 {
					d := min(st, budget)
					stall += d
					budget -= d
					if st > d {
						c.pendingStall = st - d
						break
					}
				}
			}
			// The counters access leaves alone are summed in locals
			// and stored once.
			if n := c.remSamples - left; n > 0 {
				busy := start - budget
				c.counters.Instructions += uint64(n * c.opsPerSamp)
				c.counters.BusyNs += busy
				c.counters.StallNs += stall
				c.sliceBusyNs += busy
				c.sliceStallNs += stall
				c.sliceTouches += n
				c.remSamples = left
				c.segmentGap()
				continue
			}
		}

		var done bool
		if budget, done = m.opsChunk(c, budget, opsPerNs); done {
			if c.remSamples > 0 {
				// Chunk complete: issue the sampled touch.
				c.pendingStall += m.access(i, c)
				c.remSamples--
				c.sliceTouches++
			}
			c.segmentGap()
		}
	}
}

// settle pays core i's pending stall and idle gap out of budget and,
// once its segment is spent, fetches the next one — marking the core
// done, and closing its trace span, when the source runs out. It
// returns the budget left for ops, 0 when the stall, the gap or the
// end of the core's work took all of it.
func (m *Machine) settle(i int, c *coreState, budget int64) int64 {
	for budget > 0 {
		// Pay off stall from the last memory touch.
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
		// Pending idle gap?
		if c.idleNs > 0 {
			d := min(c.idleNs, budget)
			c.idleNs -= d
			c.counters.IdleNs += d
			budget -= d
			continue
		}
		if c.remSamples > 0 || c.remOps > 0 || c.chunkOpsRem > 0 {
			return budget
		}
		// Need a new segment.
		if c.src == nil || c.done {
			c.counters.IdleNs += budget
			return 0
		}
		seg, ok := c.src.Next()
		c.nextCalls++
		if !ok {
			c.done = true
			if m.tracer != nil {
				m.closeSegSpanAt(i, c)
			}
			c.counters.IdleNs += budget
			return 0
		}
		m.loadSegment(i, c, seg)
	}
	return 0
}

// opsRate returns the core's instruction rate (ops per ns) at freqGHz.
func (m *Machine) opsRate(c *coreState, freqGHz float64) float64 {
	ipc := c.seg.IPC
	if ipc <= 0 {
		ipc = m.cfg.DefaultIPC
	}
	return ipc * freqGHz
}

// opsChunk executes as much of the core's current ops chunk as budget
// allows, first opening a chunk if none is open: the ops leading up to
// the next sampled touch, or the pure-compute remainder. It returns the
// budget left and whether the chunk completed; the caller then issues
// the chunk's touch, if one is due, and queues the segment gap.
func (m *Machine) opsChunk(c *coreState, budget int64, opsPerNs float64) (int64, bool) {
	if c.chunkOpsRem == 0 {
		if c.remSamples > 0 {
			c.chunkOpsRem = c.opsPerSamp
		} else {
			c.chunkOpsRem = c.remOps
			c.remOps = 0
		}
		if c.chunkOpsRem == 0 {
			c.chunkOpsRem = 1 // zero-ops touch still takes an issue slot
		}
	}
	opsPossible := int64(float64(budget) * opsPerNs)
	if opsPossible < 1 {
		opsPossible = 1
	}
	ops := min(c.chunkOpsRem, opsPossible)
	d := int64(float64(ops) / opsPerNs)
	if d < 1 {
		d = 1
	}
	d = min(d, budget)
	c.counters.Instructions += uint64(ops)
	c.counters.BusyNs += d
	c.sliceBusyNs += d
	c.chunkOpsRem -= ops
	return budget - d, c.chunkOpsRem == 0
}

// segmentGap queues the segment's trailing idle gap once its touches
// and ops are all spent, paying it only once.
func (c *coreState) segmentGap() {
	if c.remSamples == 0 && c.remOps == 0 {
		c.idleNs += c.seg.IdleNs
		c.seg.IdleNs = 0
	}
}

// closeSegSpanAt emits the open segment-run span for core i, if any.
func (m *Machine) closeSegSpanAt(core int, c *coreState) {
	if m.tracer == nil || c.spanKind == "" {
		return
	}
	m.tracer.Span("segment", c.spanKind, core,
		time.Duration(c.spanStartNs), time.Duration(m.now), nil)
	c.spanKind = ""
}

// loadSegment installs a new segment on the core, applying the sampled
// scaling and work jitter.
func (m *Machine) loadSegment(core int, c *coreState, seg workload.Segment) {
	if m.tracer != nil && c.spanKind != seg.Kind {
		// Consecutive same-kind segments (phase chunks) merge into one
		// span; a kind change closes the run and opens the next.
		m.closeSegSpanAt(core, c)
		c.spanKind = seg.Kind
		c.spanStartNs = m.now
	}
	if m.cfg.JitterPct > 0 && seg.Ops > 0 {
		if m.rngLog != nil {
			m.rngLog = append(m.rngLog, rngOpNorm)
		}
		f := 1 + m.rng.NormFloat64()*m.cfg.JitterPct
		if f < 0.5 {
			f = 0.5
		}
		seg.Ops = int64(float64(seg.Ops) * f)
		seg.Lines = int64(float64(seg.Lines) * f)
	}
	c.seg = seg
	c.remOps = seg.Ops
	c.remSamples = 0
	c.chunkOpsRem = 0
	c.genRem = 0
	c.blkPos, c.blkLen = 0, 0
	if seg.Lines > 0 {
		samples := seg.Lines >> m.cfg.SampleShift
		if samples < 1 {
			samples = 1
		}
		c.remSamples = samples
		c.opsPerSamp = seg.Ops / samples
		c.remOps = seg.Ops - c.opsPerSamp*samples
		// Scale the footprint with the hierarchy (see package doc).
		scaled := seg
		scaled.FootprintBytes = seg.FootprintBytes >> m.cfg.SampleShift
		if scaled.FootprintBytes < int64(m.cfg.LineBytes) {
			scaled.FootprintBytes = int64(m.cfg.LineBytes)
		}
		start := c.segPosAdvance(seg.Base, uint64(samples))
		if m.rngLog != nil {
			m.rngLog = append(m.rngLog, rngOpU64)
		}
		c.gen.Reinit(scaled, m.rng.Uint64(), start)
		c.genRem = samples
		if c.addrBlk == nil {
			c.addrBlk = make([]uint64, refBlock)
			c.l1Hit = make([]bool, refBlock)
		}
	}
}

// segPosAdvance returns the walk position accumulated so far for the
// region at base and advances it by n, inserting the region on first
// sight — the sorted-slice equivalent of the old posByBase map (absent
// regions start at 0).
func (c *coreState) segPosAdvance(base uint64, n uint64) uint64 {
	lo, hi := 0, len(c.posBases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.posBases[mid] < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.posBases) && c.posBases[lo] == base {
		start := c.posVals[lo]
		c.posVals[lo] = start + n
		return start
	}
	c.posBases = append(c.posBases, 0)
	c.posVals = append(c.posVals, 0)
	copy(c.posBases[lo+1:], c.posBases[lo:])
	copy(c.posVals[lo+1:], c.posVals[lo:])
	c.posBases[lo] = base
	c.posVals[lo] = n
	return 0
}

// access pushes one sampled touch through the hierarchy and returns
// the (scaled-up) stall in nanoseconds. Touch addresses come from the
// per-core reference batch, refilled (and L1-probed in bulk) when
// drained; shared-L2 and bus traffic still happen here, at issue time,
// preserving the global L2/bus access order across cores.
func (m *Machine) access(core int, c *coreState) int64 {
	if c.blkPos == c.blkLen {
		n := min(int64(refBlock), c.genRem)
		c.gen.FillBlock(c.addrBlk[:n])
		m.l1[core].AccessN(0, c.addrBlk[:n], c.l1Hit[:n])
		c.genRem -= n
		c.blkPos, c.blkLen = 0, int(n)
	}
	i := c.blkPos
	c.blkPos++
	if c.l1Hit[i] {
		return 0 // L1 hit: folded into base IPC
	}
	addr := c.addrBlk[i]
	c.counters.L2Accesses += m.scaleU
	if m.l2.Access(addr, core) {
		return m.l2HitStallNs
	}
	c.counters.L2Misses += m.scaleU
	c.counters.BusTx += m.scaleU
	m.bus.Add(core, m.scale)
	return m.missStallNs[patIdx(c.seg.Pattern)]
}

// patIdx maps a pattern to its mlpTab/missStallNs index; values outside
// the known patterns get pointer-chase semantics, matching the former
// switch's default arm.
func patIdx(p workload.Pattern) int {
	if p < workload.Sequential || p > workload.PointerChase {
		return int(workload.PointerChase)
	}
	return int(p)
}
