package soc

import (
	"testing"
	"testing/quick"
	"time"

	"dora/internal/corun"
	"dora/internal/dvfs"
	"dora/internal/perfmon"
	"dora/internal/telemetry"
	"dora/internal/workload"
)

func newMachine(t *testing.T, seed int64) *Machine {
	t.Helper()
	m, err := New(NexusFive(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := NexusFive().Validate(); err != nil {
		t.Fatal(err)
	}
	mods := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.OPPs = nil },
		func(c *Config) { c.SliceNs = 0 },
		func(c *Config) { c.QuantumNs = c.SliceNs * 2 },
		func(c *Config) { c.QuantumNs = c.SliceNs/3 + 1 },
		func(c *Config) { c.DefaultIPC = 0 },
		func(c *Config) { c.L2HitNs = 0 },
		func(c *Config) { c.MLPRandom = 0.5 },
		func(c *Config) { c.SampleShift = 20 },
		func(c *Config) { c.JitterPct = 0.9 },
		func(c *Config) { c.L1Ways = 8 },
	}
	for i, mod := range mods {
		cfg := NexusFive()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mod %d should fail validation", i)
		}
	}
}

func TestIdleMachineAdvances(t *testing.T) {
	m := newMachine(t, 1)
	m.Step(100 * time.Millisecond)
	if m.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v", m.Now())
	}
	c := m.Counters(0)
	if c.BusyNs != 0 || c.Instructions != 0 {
		t.Fatalf("idle core ran work: %+v", c)
	}
	if c.IdleNs != int64(100*time.Millisecond) {
		t.Fatalf("idle time = %v, want full window", c.IdleNs)
	}
	// Device still burns baseline power.
	if m.EnergyJ() < 0.1 {
		t.Fatalf("baseline energy = %v J over 100ms, too low", m.EnergyJ())
	}
	if m.LastPower().BaselineW <= 0 {
		t.Fatal("baseline power missing")
	}
}

func TestComputeBoundScalesWithFrequency(t *testing.T) {
	run := func(freqMHz int) time.Duration {
		m := newMachine(t, 2)
		cfg := m.cfg
		opp, err := cfg.OPPs.ByFreq(freqMHz)
		if err != nil {
			t.Fatal(err)
		}
		m.SetOPP(opp)
		segs := []workload.Segment{{Kind: "compute", Ops: 2_000_000_000, IPC: 1.5}}
		if err := m.AssignSource(0, workload.FromSegments("c", segs)); err != nil {
			t.Fatal(err)
		}
		for !m.CoreDone(0) && m.Now() < 60*time.Second {
			m.Step(10 * time.Millisecond)
		}
		return m.Now()
	}
	tLow := run(729)
	tHigh := run(2265)
	ratio := float64(tLow) / float64(tHigh)
	want := 2265.0 / 729.0
	if ratio < want*0.85 || ratio > want*1.15 {
		t.Fatalf("compute-bound speedup %v, want ~%v", ratio, want)
	}
}

func TestMemoryBoundFlattensAtHighFrequency(t *testing.T) {
	// A DRAM-streaming workload must speed up far less than 3.1x when
	// frequency triples — the Fig. 1 flattening.
	run := func(freqMHz int) time.Duration {
		m := newMachine(t, 3)
		opp, _ := m.cfg.OPPs.ByFreq(freqMHz)
		m.SetOPP(opp)
		segs := []workload.Segment{{
			Kind: "stream", Ops: 400_000_000, Lines: 6_000_000,
			FootprintBytes: 64 << 20, Pattern: workload.Random, Base: 0x1000_0000, IPC: 1.5,
		}}
		m.AssignSource(0, workload.FromSegments("s", segs))
		for !m.CoreDone(0) && m.Now() < 120*time.Second {
			m.Step(10 * time.Millisecond)
		}
		return m.Now()
	}
	tLow := run(729)
	tHigh := run(2265)
	ratio := float64(tLow) / float64(tHigh)
	if ratio > 2.2 {
		t.Fatalf("memory-bound speedup %v, should flatten well below 3.1x", ratio)
	}
	if ratio < 1.05 {
		t.Fatalf("memory-bound speedup %v, should still improve some", ratio)
	}
}

func TestMPKIClassesOnSoC(t *testing.T) {
	// Table III: co-run kernels land in their L2 MPKI classes when run
	// alone on the machine.
	measure := func(k corun.Kernel) float64 {
		m := newMachine(t, 4)
		opp, _ := m.cfg.OPPs.ByFreq(2265)
		m.SetOPP(opp)
		m.AssignSource(2, workload.Loop(k.New(11)))
		m.Step(2 * time.Second)
		return m.Counters(2).MPKI()
	}
	for _, k := range corun.Kernels() {
		mpki := measure(k)
		switch k.Intensity {
		case corun.Low:
			if mpki >= 1 {
				t.Errorf("%s: MPKI %.2f, want < 1", k.Name, mpki)
			}
		case corun.Medium:
			if mpki < 1 || mpki > 7 {
				t.Errorf("%s: MPKI %.2f, want in [1,7]", k.Name, mpki)
			}
		case corun.High:
			if mpki <= 7 {
				t.Errorf("%s: MPKI %.2f, want > 7", k.Name, mpki)
			}
		}
	}
}

func TestInterferenceSlowsVictim(t *testing.T) {
	// The same fixed workload takes longer with a high-intensity
	// co-runner — the paper's core observation.
	segs := func() []workload.Segment {
		return []workload.Segment{{
			Kind: "victim", Ops: 1_000_000_000, Lines: 8_000_000,
			FootprintBytes: 1 << 20, Pattern: workload.PointerChase,
			Base: 0x2000_0000, IPC: 1.5,
		}}
	}
	alone := newMachine(t, 5)
	opp, _ := alone.cfg.OPPs.ByFreq(1190)
	alone.SetOPP(opp)
	alone.AssignSource(0, workload.FromSegments("v", segs()))
	for !alone.CoreDone(0) && alone.Now() < 120*time.Second {
		alone.Step(10 * time.Millisecond)
	}
	tAlone := alone.Now()

	hk, _ := corun.Representative(corun.High)
	crowd := newMachine(t, 5)
	crowd.SetOPP(opp)
	crowd.AssignSource(0, workload.FromSegments("v", segs()))
	crowd.AssignSource(2, workload.Loop(hk.New(13)))
	for !crowd.CoreDone(0) && crowd.Now() < 120*time.Second {
		crowd.Step(10 * time.Millisecond)
	}
	tCrowd := crowd.Now()

	if float64(tCrowd) < float64(tAlone)*1.08 {
		t.Fatalf("interference too weak: alone %v, crowded %v", tAlone, tCrowd)
	}
}

func TestThermalAndLeakageRiseUnderLoad(t *testing.T) {
	m := newMachine(t, 6)
	opp, _ := m.cfg.OPPs.ByFreq(2265)
	m.SetOPP(opp)
	hk, _ := corun.Representative(corun.High)
	m.AssignSource(0, workload.Loop(hk.New(1)))
	m.AssignSource(1, workload.Loop(hk.New(2)))
	startTemp := m.SoCTemp()
	m.Step(20 * time.Second)
	if m.SoCTemp() < startTemp+8 {
		t.Fatalf("SoC barely warmed: %v -> %v", startTemp, m.SoCTemp())
	}
	if m.thermal.CoreTemp(0) <= m.SoCTemp() {
		t.Fatal("loaded core must read hotter than SoC node")
	}
	if m.LastPower().LeakageW <= 0.1 {
		t.Fatalf("hot leakage %v W implausibly low", m.LastPower().LeakageW)
	}
}

func TestSetOPPCostsAccounted(t *testing.T) {
	m := newMachine(t, 7)
	if m.Switches() != 0 {
		t.Fatal("fresh machine has switches")
	}
	opp, _ := m.cfg.OPPs.ByFreq(1497)
	m.SetOPP(opp)
	m.SetOPP(opp) // same OPP: no-op
	if m.Switches() != 1 {
		t.Fatalf("switches = %d, want 1", m.Switches())
	}
	if m.OPP().FreqMHz != 1497 {
		t.Fatalf("OPP = %d", m.OPP().FreqMHz)
	}
	// Switch stall shows up as busy+stall time in the next slice.
	m.Step(time.Millisecond)
	c := m.Counters(0)
	if c.StallNs <= 0 {
		t.Fatal("DVFS switch stall not accounted")
	}
}

func TestCountersConserveTime(t *testing.T) {
	m := newMachine(t, 8)
	k, _ := corun.Representative(corun.Medium)
	m.AssignSource(1, workload.Loop(k.New(3)))
	m.Step(500 * time.Millisecond)
	for i := 0; i < 4; i++ {
		c := m.Counters(i)
		total := c.BusyNs + c.IdleNs
		if total != int64(500*time.Millisecond) {
			t.Fatalf("core %d busy+idle = %d, want %d", i, total, int64(500*time.Millisecond))
		}
		if c.StallNs > c.BusyNs {
			t.Fatalf("core %d stall > busy", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (time.Duration, float64, uint64) {
		m := newMachine(t, 99)
		k, _ := corun.Representative(corun.High)
		m.AssignSource(0, workload.Loop(k.New(1)))
		m.Step(300 * time.Millisecond)
		return m.Now(), m.EnergyJ(), m.Counters(0).Instructions
	}
	n1, e1, i1 := run()
	n2, e2, i2 := run()
	if n1 != n2 || e1 != e2 || i1 != i2 {
		t.Fatalf("nondeterministic: (%v,%v,%d) vs (%v,%v,%d)", n1, e1, i1, n2, e2, i2)
	}
}

func TestAssignmentErrors(t *testing.T) {
	m := newMachine(t, 1)
	if err := m.AssignSource(99, nil); err == nil {
		t.Fatal("out-of-range core must error")
	}
	if !m.CoreDone(99) {
		t.Fatal("out-of-range core reads as done")
	}
	if m.Counters(99) != (perfmon.Counters{}) {
		t.Fatal("out-of-range counters must be zero")
	}
	if err := m.AssignSource(-1, nil); err == nil {
		t.Fatal("negative core must error")
	}
}

func TestCoreDoneOnFiniteSource(t *testing.T) {
	m := newMachine(t, 10)
	segs := []workload.Segment{{Kind: "tiny", Ops: 1_000_000, IPC: 1.5}}
	m.AssignSource(0, workload.FromSegments("t", segs))
	if m.CoreDone(0) {
		t.Fatal("core with pending work reads done")
	}
	m.Step(time.Second)
	if !m.CoreDone(0) {
		t.Fatal("tiny workload should complete within a second")
	}
}

func TestIdleGapsLowerUtilization(t *testing.T) {
	m := newMachine(t, 11)
	hw, _ := corun.ByName("heartwall")
	m.AssignSource(2, workload.Loop(hw.New(1)))
	m.Step(2 * time.Second)
	util := m.Counters(2).Utilization()
	if util <= 0.05 || util >= 0.99 {
		t.Fatalf("heartwall utilization = %v, want interior (frame gaps)", util)
	}
}

func TestSetOPPClampsUnknownFrequency(t *testing.T) {
	m := newMachine(t, 20)
	m.SetOPP(dvfs.OPP{FreqMHz: 1000}) // not in the table
	if m.OPP().FreqMHz != 1036 {
		t.Fatalf("clamped to %d, want 1036 (Ceil)", m.OPP().FreqMHz)
	}
	m.SetOPP(dvfs.OPP{FreqMHz: 99999})
	if m.OPP().FreqMHz != 2265 {
		t.Fatalf("over-max clamped to %d, want 2265", m.OPP().FreqMHz)
	}
}

func TestTraceCallback(t *testing.T) {
	m := newMachine(t, 21)
	k, _ := corun.Representative(corun.High)
	m.AssignSource(0, workload.Loop(k.New(1)))
	var samples []TraceSample
	sink := telemetry.NewSink(telemetry.SinkOptions{})
	sink.Subscribe(func(s TraceSample) { samples = append(samples, s) })
	m.SetSink(sink)
	m.Step(50 * time.Millisecond)
	if len(samples) != 50 {
		t.Fatalf("trace samples = %d, want one per 1 ms slice", len(samples))
	}
	for i, s := range samples {
		if s.PowerW <= 0 || s.SoCTempC <= 0 || s.FreqMHz <= 0 {
			t.Fatalf("sample %d implausible: %+v", i, s)
		}
		if i > 0 && s.Now <= samples[i-1].Now {
			t.Fatal("trace time must advance")
		}
	}
	m.SetSink(nil)
	m.Step(10 * time.Millisecond)
	if len(samples) != 50 {
		t.Fatal("a detached sink must stop sampling")
	}
}

// Property: busy+idle always equals wall-clock for every core, under
// arbitrary OPP switching and workload mixes.
func TestTimeConservationProperty(t *testing.T) {
	f := func(seed int64, switches uint8) bool {
		m, err := New(NexusFive(), seed)
		if err != nil {
			return false
		}
		ks := corun.Kernels()
		m.AssignSource(0, workload.Loop(ks[int(uint8(seed))%len(ks)].New(seed)))
		m.AssignSource(2, workload.Loop(ks[int(switches)%len(ks)].New(seed+1)))
		tab := m.cfg.OPPs
		r := seed
		for i := 0; i < int(switches%12)+3; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			m.SetOPP(tab.At(int(uint64(r)>>33) % tab.Len()))
			m.Step(7 * time.Millisecond)
		}
		wall := int64(m.Now())
		for c := 0; c < 4; c++ {
			cc := m.Counters(c)
			if cc.BusyNs+cc.IdleNs != wall {
				return false
			}
			if cc.StallNs > cc.BusyNs || cc.StallNs < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestThermalTripTrace(t *testing.T) {
	// Lower the trip point to just above the prewarm temperature so a
	// heavy workload crosses it quickly, then cools back below it.
	cfg := NexusFive()
	cfg.ThermalTripC = 40
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Prewarm(38)
	tr := telemetry.NewTracer()
	m.SetTracer(tr)
	m.SetOPP(cfg.OPPs.Max())
	k, err := corun.Representative(corun.High)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Cores; i++ {
		if err := m.AssignSource(i, workload.Loop(k.New(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for m.SoCTemp() < cfg.ThermalTripC && m.Now() < 20*time.Second {
		m.Step(10 * time.Millisecond)
	}
	if m.SoCTemp() < cfg.ThermalTripC {
		t.Fatalf("workload never reached %v C (at %v C)", cfg.ThermalTripC, m.SoCTemp())
	}
	// Cool down: stop all work at the floor OPP until below the trip.
	for i := 0; i < cfg.Cores; i++ {
		m.AssignSource(i, nil)
	}
	m.SetOPP(cfg.OPPs.Min())
	for m.SoCTemp() >= cfg.ThermalTripC && m.Now() < 60*time.Second {
		m.Step(100 * time.Millisecond)
	}
	m.FlushTrace()

	var enter, episode bool
	for _, e := range tr.Events() {
		if e.Cat == "thermal" && e.Ph == "i" && e.Name == "thermal-trip-enter" {
			enter = true
		}
		if e.Cat == "thermal" && e.Ph == "X" && e.Name == "thermal-throttle" {
			episode = true
			if e.Dur <= 0 {
				t.Fatalf("throttle episode with non-positive duration: %+v", e)
			}
		}
	}
	if !enter || !episode {
		t.Fatalf("thermal trip telemetry missing: enter=%v episode=%v", enter, episode)
	}
}
