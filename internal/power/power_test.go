package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDynamicCalibration(t *testing.T) {
	p := DefaultCore()
	// Fully active at the top OPP: Krait-class ~1.5 W.
	top := p.Dynamic(1.10, 2.265e9, 1, 0)
	if top < 1.2 || top > 1.9 {
		t.Fatalf("top-OPP dynamic power = %v W, outside Krait envelope", top)
	}
	// Floor OPP: ~0.1 W.
	floor := p.Dynamic(0.80, 0.3e9, 1, 0)
	if floor < 0.05 || floor > 0.2 {
		t.Fatalf("floor-OPP dynamic power = %v W", floor)
	}
	if top/floor < 10 {
		t.Fatalf("dynamic range %v too small", top/floor)
	}
}

func TestDynamicActivityScaling(t *testing.T) {
	p := DefaultCore()
	full := p.Dynamic(1.0, 1e9, 1, 0)
	half := p.Dynamic(1.0, 1e9, 0.5, 0)
	if math.Abs(half-full/2) > 1e-12 {
		t.Fatalf("busy scaling wrong: %v vs %v/2", half, full)
	}
	stalled := p.Dynamic(1.0, 1e9, 1, 1)
	if math.Abs(stalled-full*p.StallActivity) > 1e-12 {
		t.Fatalf("stall activity wrong: %v", stalled)
	}
	idle := p.Dynamic(1.0, 1e9, 0, 0)
	if idle != 0 {
		t.Fatalf("idle dynamic power = %v, want 0", idle)
	}
	// Out-of-range fractions are clamped.
	if p.Dynamic(1.0, 1e9, 2, -1) != full {
		t.Fatal("clamping failed")
	}
}

func TestDynamicVoltageSquared(t *testing.T) {
	p := DefaultCore()
	a := p.Dynamic(1.0, 1e9, 1, 0)
	b := p.Dynamic(2.0, 1e9, 1, 0)
	if math.Abs(b-4*a) > 1e-12 {
		t.Fatalf("V^2 scaling violated: %v vs 4*%v", b, a)
	}
}

func TestLeakageCalibration(t *testing.T) {
	l := DefaultLeakage()
	cold := l.Power(0.85, 30)
	hot := l.Power(1.10, 65)
	if cold < 0.05 || cold > 0.35 {
		t.Fatalf("cold leakage = %v W", cold)
	}
	if hot < 0.5 || hot > 1.3 {
		t.Fatalf("hot leakage = %v W", hot)
	}
	if hot/cold < 3 {
		t.Fatalf("leakage spread %v too small to matter", hot/cold)
	}
}

func TestLeakageMonotone(t *testing.T) {
	l := DefaultLeakage()
	if l.Power(1.0, 50) <= l.Power(1.0, 40) {
		t.Fatal("leakage must rise with temperature")
	}
	if l.Power(1.1, 40) <= l.Power(0.9, 40) {
		t.Fatal("leakage must rise with voltage")
	}
	// Clamps: negative voltage/extreme cold do not produce NaN/negative.
	if v := l.Power(-1, -100); v < 0 || math.IsNaN(v) {
		t.Fatalf("clamped leakage invalid: %v", v)
	}
}

func TestParamsVectorMatchesStruct(t *testing.T) {
	l := DefaultLeakage()
	vec := []float64{l.K1, l.Alpha, l.Beta, l.K2, l.Gamma, l.Delta}
	for _, tc := range []struct{ v, tempC float64 }{{0.9, 35}, {1.05, 60}} {
		if got, want := Params(vec, tc.v, tc.tempC), l.Power(tc.v, tc.tempC); got != want {
			t.Fatalf("Params(%v,%v) = %v, want %v", tc.v, tc.tempC, got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultDevice().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultDevice()
	bad.Core.CeffF = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero Ceff must fail")
	}
	bad = DefaultDevice()
	bad.Core.StallActivity = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("StallActivity > 1 must fail")
	}
	bad = DefaultDevice()
	bad.BaselineW = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative baseline must fail")
	}
	bad = DefaultDevice()
	bad.Leakage.K1 = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative leakage coefficient must fail")
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{CoreDynamicW: 1, LeakageW: 0.5, L2W: 0.1, UncoreW: 0.1, BaselineW: 1.15}
	if math.Abs(b.Total()-2.85) > 1e-12 {
		t.Fatalf("Total = %v", b.Total())
	}
	if math.Abs(b.SoC()-1.7) > 1e-12 {
		t.Fatalf("SoC = %v", b.SoC())
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.Record(time.Second, 2)
	m.Record(time.Second, 4)
	if m.EnergyJ() != 6 {
		t.Fatalf("EnergyJ = %v", m.EnergyJ())
	}
	if m.AvgPowerW() != 3 {
		t.Fatalf("AvgPowerW = %v", m.AvgPowerW())
	}
	if m.Elapsed() != 2*time.Second {
		t.Fatalf("Elapsed = %v", m.Elapsed())
	}
	m.Record(0, 100)            // ignored
	m.Record(-time.Second, 100) // ignored
	m.Record(time.Second, -5)   // ignored
	if m.EnergyJ() != 6 {
		t.Fatal("invalid Record calls must be ignored")
	}
	m.Reset()
	if m.EnergyJ() != 0 || m.AvgPowerW() != 0 || m.Elapsed() != 0 {
		t.Fatal("Reset failed")
	}
	if (&Meter{}).AvgPowerW() != 0 {
		t.Fatal("empty meter AvgPowerW must be 0")
	}
}

func TestPPW(t *testing.T) {
	// 2 s at 2.5 W = 5 J -> PPW 0.2, the paper's Fig. 6 scale.
	got := PPW(2*time.Second, 2.5)
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("PPW = %v, want 0.2", got)
	}
	if PPW(0, 2) != 0 || PPW(time.Second, 0) != 0 || PPW(-time.Second, 2) != 0 {
		t.Fatal("degenerate PPW must be 0")
	}
}

// Property: PPW is inversely proportional to both time and power.
func TestPPWInverseProperty(t *testing.T) {
	f := func(rawT, rawP uint16) bool {
		tt := time.Duration(int(rawT)%5000+1) * time.Millisecond
		p := float64(rawP%500)/100 + 0.1
		base := PPW(tt, p)
		return math.Abs(PPW(2*tt, p)-base/2) < 1e-9*base &&
			math.Abs(PPW(tt, 2*p)-base/2) < 1e-9*base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: dynamic power is nonnegative and monotone in frequency.
func TestDynamicMonotoneProperty(t *testing.T) {
	p := DefaultCore()
	f := func(rawF uint16, rawB, rawS uint8) bool {
		f1 := float64(rawF%2000+300) * 1e6
		f2 := f1 + 100e6
		busy := float64(rawB) / 255
		stall := float64(rawS) / 255
		p1 := p.Dynamic(1.0, f1, busy, stall)
		p2 := p.Dynamic(1.0, f2, busy, stall)
		return p1 >= 0 && p2 >= p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
