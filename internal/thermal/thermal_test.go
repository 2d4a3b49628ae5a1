package thermal

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(DefaultNexus5())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidate(t *testing.T) {
	if err := DefaultNexus5().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultNexus5()
	bad.SoCResistance = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero resistance must fail")
	}
	bad = DefaultNexus5()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero cores must fail")
	}
	bad = DefaultNexus5()
	bad.SoCTimeConst = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero time constant must fail")
	}
}

// steadyStateSoC is the temperature the SoC node settles at under
// constant power p: ambient plus the node's thermal resistance times p.
func steadyStateSoC(m *Model, p float64) float64 {
	return m.cfg.AmbientC + m.cfg.SoCResistance*p
}

func TestStartsAtAmbient(t *testing.T) {
	m := newModel(t)
	if m.SoCTemp() != 25 || m.CoreTemp(0) != 25 {
		t.Fatalf("initial temps: soc=%v core=%v", m.SoCTemp(), m.CoreTemp(0))
	}
}

func TestConvergesToSteadyState(t *testing.T) {
	m := newModel(t)
	p := 3.0 // watts, heavy sustained load
	want := steadyStateSoC(m, p)
	for i := 0; i < 1500; i++ { // 150 s of 100 ms steps >> tau
		m.Step(100*time.Millisecond, p, []float64{p / 4, p / 4, p / 4, p / 4})
	}
	if math.Abs(m.SoCTemp()-want) > 0.1 {
		t.Fatalf("SoC temp %v, want steady state %v", m.SoCTemp(), want)
	}
	// Calibration: ~3 W at room temperature lands in the paper's 55-65
	// degC band.
	if m.SoCTemp() < 52 || m.SoCTemp() > 68 {
		t.Fatalf("steady temp %v outside paper-calibrated band", m.SoCTemp())
	}
	// Core sensors read above the SoC node under load.
	if m.CoreTemp(0) <= m.SoCTemp() {
		t.Fatal("loaded core must run hotter than SoC node")
	}
}

func TestStepSizeInvariance(t *testing.T) {
	// Exact exponential update: one 1 s step == ten 100 ms steps.
	a := newModel(t)
	b := newModel(t)
	p := []float64{2, 0, 0, 0}
	a.Step(time.Second, 2, p)
	for i := 0; i < 10; i++ {
		b.Step(100*time.Millisecond, 2, p)
	}
	if math.Abs(a.SoCTemp()-b.SoCTemp()) > 1e-9 {
		t.Fatalf("step-size dependence: %v vs %v", a.SoCTemp(), b.SoCTemp())
	}
	if math.Abs(a.CoreTemp(0)-b.CoreTemp(0)) > 1e-9 {
		t.Fatalf("core step-size dependence: %v vs %v", a.CoreTemp(0), b.CoreTemp(0))
	}
}

func TestCooldown(t *testing.T) {
	m := newModel(t)
	for i := 0; i < 300; i++ {
		m.Step(100*time.Millisecond, 3, []float64{1, 1, 1, 0})
	}
	hot := m.SoCTemp()
	for i := 0; i < 3000; i++ {
		m.Step(100*time.Millisecond, 0, nil)
	}
	if m.SoCTemp() >= hot {
		t.Fatal("must cool down with power removed")
	}
	if math.Abs(m.SoCTemp()-25) > 0.2 {
		t.Fatalf("must relax to ambient, got %v", m.SoCTemp())
	}
}

func TestAmbientShift(t *testing.T) {
	m := newModel(t)
	m.SetAmbient(10)
	if m.cfg.AmbientC != 10 {
		t.Fatal("SetAmbient not applied")
	}
	for i := 0; i < 2000; i++ {
		m.Step(100*time.Millisecond, 1, []float64{1})
	}
	cold := m.SoCTemp()
	m = newModel(t)
	m.SetAmbient(25)
	for i := 0; i < 2000; i++ {
		m.Step(100*time.Millisecond, 1, []float64{1})
	}
	room := m.SoCTemp()
	if room-cold < 10 {
		t.Fatalf("room vs cold ambient separation too small: %v vs %v", room, cold)
	}
}

func TestEdgeCases(t *testing.T) {
	m := newModel(t)
	m.Step(0, 5, nil)            // no-op
	m.Step(-time.Second, 5, nil) // no-op
	if m.SoCTemp() != 25 {
		t.Fatal("non-positive dt must not change state")
	}
	// Negative power treated as zero.
	m.Step(time.Second, -10, []float64{-5})
	if m.SoCTemp() < 25-1e-9 {
		t.Fatal("negative power must not cool below ambient")
	}
	// Out-of-range core index falls back to SoC temp.
	if m.CoreTemp(99) != m.SoCTemp() || m.CoreTemp(-1) != m.SoCTemp() {
		t.Fatal("out-of-range core temp fallback wrong")
	}
}

// Property: temperature stays within [ambient, steady-state(maxP)] for
// any bounded power sequence, and is monotone under constant power.
func TestBoundedTrajectoryProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		m, err := New(DefaultNexus5())
		if err != nil {
			return false
		}
		maxP := 4.0
		hi := steadyStateSoC(m, maxP)
		prev := m.SoCTemp()
		r := seed
		for i := 0; i < int(steps)+1; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			p := math.Abs(float64(r%1000)) / 1000 * maxP
			m.Step(50*time.Millisecond, p, []float64{p})
			tt := m.SoCTemp()
			if tt < m.cfg.AmbientC-1e-9 || tt > hi+1e-9 {
				return false
			}
			prev = tt
		}
		_ = prev
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneHeatingProperty(t *testing.T) {
	f := func(raw uint8) bool {
		m, _ := New(DefaultNexus5())
		p := 0.5 + float64(raw)/64
		prev := m.SoCTemp()
		for i := 0; i < 50; i++ {
			m.Step(100*time.Millisecond, p, []float64{p})
			if m.SoCTemp() < prev-1e-12 {
				return false
			}
			prev = m.SoCTemp()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
