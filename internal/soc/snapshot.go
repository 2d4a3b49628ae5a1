package soc

// Warm-state checkpointing for the sampled-fidelity layer: a deep copy
// of everything that makes a machine "warm" — cache tag/LRU arrays,
// the bus window and utilization estimate, thermal state, the power
// meter, per-core segment positions and reference generators — plus
// the two pieces that cannot be copied directly and are replayed
// instead: the shared jitter RNG (an op-kind log re-run against a
// fresh generator seeded identically) and the workload sources (the
// per-core Next() call counts re-issued against freshly constructed
// deterministic sources).
//
// Snapshots are immutable after creation: Restore only reads them, so
// one snapshot can warm any number of machines concurrently.

import (
	"errors"
	"math/rand"

	"dora/internal/cache"
	"dora/internal/dvfs"
	"dora/internal/membus"
	"dora/internal/perfmon"
	"dora/internal/power"
	"dora/internal/thermal"
	"dora/internal/workload"
)

// RNG op-log entries: the kind of each draw from the machine's shared
// jitter RNG since StartRNGLog.
const (
	rngOpNorm byte = 'n' // NormFloat64 (segment work jitter)
	rngOpU64  byte = 'u' // Uint64 (reference-generator seed)
)

// StartRNGLog begins recording the kind of every shared-RNG draw.
// Call it before the machine makes any draw (right after New) on
// machines that may be snapshotted; Snapshot embeds the log so Restore
// can replay the stream.
func (m *Machine) StartRNGLog() {
	if m.rngLog == nil {
		m.rngLog = make([]byte, 0, 1024)
	}
}

// StopRNGLog stops recording (after the checkpoint of interest has
// been taken).
func (m *Machine) StopRNGLog() { m.rngLog = nil }

// coreSnap is one core's execution state.
type coreSnap struct {
	done         bool
	seg          workload.Segment
	gen          workload.RefGen
	remSamples   int64
	opsPerSamp   int64
	remOps       int64
	idleNs       int64
	chunkOpsRem  int64
	pendingStall int64
	addrBlk      []uint64
	l1Hit        []bool
	blkPos       int
	blkLen       int
	genRem       int64
	posBases     []uint64
	posVals      []uint64
	counters     perfmon.Counters
	sliceBusyNs  int64
	sliceStallNs int64
	nextCalls    int64
	ff           ffCore
}

// MachineSnapshot is an opaque, immutable warm-state checkpoint.
type MachineSnapshot struct {
	now        int64
	opp        dvfs.OPP
	switches   int
	stallAllNs int64
	switchEJ   float64
	lastPower  power.Breakdown
	meter      power.MeterSnapshot
	l1         []cache.PrivateSnapshot
	l2         cache.Snapshot
	bus        membus.Snapshot
	thermal    thermal.Snapshot
	rngOps     []byte
	cores      []coreSnap
}

// Now returns the simulated time the snapshot was taken at, in ns.
func (s *MachineSnapshot) Now() int64 { return s.now }

// Snapshot captures the machine's full warm state. The machine must
// have had StartRNGLog active since before its first RNG draw, or the
// restored RNG stream will diverge.
func (m *Machine) Snapshot() *MachineSnapshot {
	s := &MachineSnapshot{
		now:        m.now,
		opp:        m.opp,
		switches:   m.switches,
		stallAllNs: m.stallAllNs,
		switchEJ:   m.switchEJ,
		lastPower:  m.lastPower,
		meter:      m.meter.Snapshot(),
		l2:         m.l2.Snapshot(),
		bus:        m.bus.Snapshot(),
		thermal:    m.thermal.Snapshot(),
		rngOps:     append([]byte(nil), m.rngLog...),
		l1:         make([]cache.PrivateSnapshot, len(m.l1)),
		cores:      make([]coreSnap, len(m.cores)),
	}
	for i, l1 := range m.l1 {
		s.l1[i] = l1.Snapshot()
	}
	for i := range m.cores {
		c := &m.cores[i]
		cs := coreSnap{
			done:         c.done,
			seg:          c.seg,
			gen:          c.gen,
			remSamples:   c.remSamples,
			opsPerSamp:   c.opsPerSamp,
			remOps:       c.remOps,
			idleNs:       c.idleNs,
			chunkOpsRem:  c.chunkOpsRem,
			pendingStall: c.pendingStall,
			blkPos:       c.blkPos,
			blkLen:       c.blkLen,
			genRem:       c.genRem,
			counters:     c.counters,
			sliceBusyNs:  c.sliceBusyNs,
			sliceStallNs: c.sliceStallNs,
			nextCalls:    c.nextCalls,
		}
		if c.addrBlk != nil {
			cs.addrBlk = append([]uint64(nil), c.addrBlk...)
			cs.l1Hit = append([]bool(nil), c.l1Hit...)
		}
		cs.posBases = append([]uint64(nil), c.posBases...)
		cs.posVals = append([]uint64(nil), c.posVals...)
		if m.ff != nil {
			cs.ff = m.ff[i]
		}
		s.cores[i] = cs
	}
	return s
}

// RestoreSnapshot overwrites the machine's state with a checkpoint
// taken from a machine of the same configuration and seed. The caller
// must first attach sources identical to those the donor had at
// snapshot time (same constructors, same seeds): Restore replays each
// source to the donor's position by re-issuing its recorded Next()
// count, and replays the shared RNG stream against a fresh generator.
func (m *Machine) RestoreSnapshot(s *MachineSnapshot) error {
	if len(s.cores) != len(m.cores) || len(s.l1) != len(m.l1) {
		return errors.New("soc: snapshot core count mismatch")
	}
	m.now = s.now
	m.opp = s.opp
	m.switches = s.switches
	m.stallAllNs = s.stallAllNs
	m.switchEJ = s.switchEJ
	m.lastPower = s.lastPower
	m.meter.Restore(s.meter)
	for i, l1 := range m.l1 {
		l1.Restore(s.l1[i])
	}
	m.l2.Restore(s.l2)
	m.bus.Restore(s.bus)
	m.thermal.Restore(s.thermal)

	// Replay the shared RNG stream against a fresh generator.
	m.rng = rand.New(rand.NewSource(m.seed))
	for _, op := range s.rngOps {
		switch op {
		case rngOpNorm:
			m.rng.NormFloat64()
		case rngOpU64:
			m.rng.Uint64()
		default:
			return errors.New("soc: corrupt RNG op log in snapshot")
		}
	}
	m.rngLog = nil

	if m.ff == nil {
		m.ff = make([]ffCore, len(m.cores))
	}
	for i := range m.cores {
		c := &m.cores[i]
		cs := &s.cores[i]
		// Replay the source to the donor's stream position.
		if cs.nextCalls > 0 {
			if c.src == nil {
				return errors.New("soc: snapshot restore needs the donor's source attached")
			}
			for j := int64(0); j < cs.nextCalls; j++ {
				c.src.Next()
			}
		}
		c.done = cs.done
		c.seg = cs.seg
		c.gen = cs.gen
		c.remSamples = cs.remSamples
		c.opsPerSamp = cs.opsPerSamp
		c.remOps = cs.remOps
		c.idleNs = cs.idleNs
		c.chunkOpsRem = cs.chunkOpsRem
		c.pendingStall = cs.pendingStall
		c.blkPos = cs.blkPos
		c.blkLen = cs.blkLen
		c.genRem = cs.genRem
		c.counters = cs.counters
		c.sliceBusyNs = cs.sliceBusyNs
		c.sliceStallNs = cs.sliceStallNs
		c.sliceTouches = 0
		c.nextCalls = cs.nextCalls
		if cs.addrBlk != nil {
			if c.addrBlk == nil {
				c.addrBlk = make([]uint64, refBlock)
				c.l1Hit = make([]bool, refBlock)
			}
			copy(c.addrBlk, cs.addrBlk)
			copy(c.l1Hit, cs.l1Hit)
		}
		c.posBases = append(c.posBases[:0], cs.posBases...)
		c.posVals = append(c.posVals[:0], cs.posVals...)
		m.ff[i] = cs.ff
	}
	return nil
}

// CoreSegKind returns the Kind of the segment core i is executing
// (empty when idle) — an input to the sampled-fidelity phase
// signature, which must change when the active kernel mix changes.
func (m *Machine) CoreSegKind(core int) string {
	if core < 0 || core >= len(m.cores) {
		return ""
	}
	return m.cores[core].seg.Kind
}
