package membus

import (
	"testing"
	"testing/quick"
	"time"
)

func newBus(t *testing.T) *Bus {
	t.Helper()
	b, err := New(DefaultLPDDR3(), 933)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultLPDDR3().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultLPDDR3()
	bad.MaxUtilization = 1.0
	if err := bad.Validate(); err == nil {
		t.Fatal("MaxUtilization=1 must fail")
	}
	bad = DefaultLPDDR3()
	bad.LineBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero line bytes must fail")
	}
	bad = DefaultLPDDR3()
	bad.MaxOwners = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero owners must fail")
	}
	bad = DefaultLPDDR3()
	bad.EnergyPerByteJ = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative energy must fail")
	}
	if _, err := New(DefaultLPDDR3(), 0); err == nil {
		t.Fatal("zero initial frequency must fail")
	}
}

func TestPeakBandwidth(t *testing.T) {
	b := newBus(t)
	// 933 MHz * 9e6 B/s/MHz = 8.397 GB/s
	if got := b.PeakBandwidth(); got < 8.3e9 || got > 8.5e9 {
		t.Fatalf("PeakBandwidth = %v", got)
	}
	b.SetFreqMHz(333)
	if got := b.PeakBandwidth(); got < 2.9e9 || got > 3.1e9 {
		t.Fatalf("PeakBandwidth@333 = %v", got)
	}
	b.SetFreqMHz(0) // ignored
	if b.FreqMHz() != 333 {
		t.Fatal("SetFreqMHz(0) must be ignored")
	}
}

func TestUnloadedLatency(t *testing.T) {
	b := newBus(t)
	lat := b.TransactionLatency()
	// base 100ns + 64B/8.4GB/s (~7.6ns) and no queueing.
	if lat < 100*time.Nanosecond || lat > 115*time.Nanosecond {
		t.Fatalf("unloaded latency = %v", lat)
	}
}

func TestLatencyRisesWithUtilization(t *testing.T) {
	b := newBus(t)
	l0 := b.TransactionLatency()

	// Load one window at ~50% of peak: 14.9GB/s * 1ms * 0.5 / 64B.
	n := int64(0.5 * b.PeakBandwidth() * 0.001 / 64)
	b.Add(0, n)
	ws, err := b.EndWindow(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Utilization < 0.45 || ws.Utilization > 0.55 {
		t.Fatalf("utilization = %v, want ~0.5", ws.Utilization)
	}
	l1 := b.TransactionLatency()
	if l1 <= l0 {
		t.Fatalf("loaded latency %v must exceed unloaded %v", l1, l0)
	}

	// Saturating load clamps at MaxUtilization and still returns a
	// finite latency.
	b.Add(0, n*10)
	ws, _ = b.EndWindow(time.Millisecond)
	if ws.Utilization != DefaultLPDDR3().MaxUtilization {
		t.Fatalf("saturated utilization = %v, want clamp", ws.Utilization)
	}
	l2 := b.TransactionLatency()
	if l2 <= l1 || l2 > time.Millisecond {
		t.Fatalf("saturated latency implausible: %v", l2)
	}
}

func TestWindowAccounting(t *testing.T) {
	b := newBus(t)
	b.Add(0, 100)
	b.Add(1, 50)
	b.Add(0, 25)
	ws, err := b.EndWindow(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Transactions != 175 {
		t.Fatalf("transactions = %d", ws.Transactions)
	}
	if ws.PerOwner[0] != 125 || ws.PerOwner[1] != 50 {
		t.Fatalf("per-owner = %v", ws.PerOwner)
	}
	if ws.EnergyJ <= 0 {
		t.Fatal("window energy must be positive (idle power at least)")
	}
	// Window counters reset.
	ws2, _ := b.EndWindow(100 * time.Millisecond)
	if ws2.Transactions != 0 {
		t.Fatal("window counters must reset")
	}
}

func TestEndWindowErrors(t *testing.T) {
	b := newBus(t)
	if _, err := b.EndWindow(0); err == nil {
		t.Fatal("zero duration must error")
	}
}

func TestAddPanics(t *testing.T) {
	b := newBus(t)
	for _, tc := range []struct {
		owner int
		n     int64
	}{{-1, 1}, {99, 1}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d,%d) must panic", tc.owner, tc.n)
				}
			}()
			b.Add(tc.owner, tc.n)
		}()
	}
}

func TestReset(t *testing.T) {
	b := newBus(t)
	b.Add(0, 1000000)
	b.EndWindow(time.Millisecond)
	b.Reset()
	if b.Utilization() != 0 {
		t.Fatal("Reset must clear state")
	}
}

// Property: latency is monotone nondecreasing in utilization, finite,
// and never below the unloaded value.
func TestLatencyMonotoneProperty(t *testing.T) {
	f := func(rawA, rawB uint16) bool {
		b, err := New(DefaultLPDDR3(), 800)
		if err != nil {
			return false
		}
		unloaded := b.TransactionLatency()
		ua := float64(rawA%1000) / 1000
		ub := float64(rawB%1000) / 1000
		if ua > ub {
			ua, ub = ub, ua
		}
		peakPerMs := b.PeakBandwidth() * 0.001 / 64
		b.Add(0, int64(ua*peakPerMs))
		b.EndWindow(time.Millisecond)
		la := b.TransactionLatency()
		b.Add(0, int64(ub*peakPerMs))
		b.EndWindow(time.Millisecond)
		lb := b.TransactionLatency()
		return la >= unloaded && lb >= la && lb < time.Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: lowering the bus frequency never lowers unloaded latency.
func TestBusFrequencyLatencyProperty(t *testing.T) {
	f := func(raw uint16) bool {
		lo := int(raw)%800 + 100
		hi := lo + 133
		bl, _ := New(DefaultLPDDR3(), lo)
		bh, _ := New(DefaultLPDDR3(), hi)
		return bl.TransactionLatency() >= bh.TransactionLatency()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
