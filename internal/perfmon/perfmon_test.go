package perfmon

import (
	"testing"
	"time"
)

func TestSubAdd(t *testing.T) {
	a := Counters{Instructions: 100, BusyNs: 50, StallNs: 10, IdleNs: 50, L2Accesses: 20, L2Misses: 5, BusTx: 5}
	b := Counters{Instructions: 300, BusyNs: 150, StallNs: 40, IdleNs: 70, L2Accesses: 60, L2Misses: 15, BusTx: 12}
	d := b.Sub(a)
	if d.Instructions != 200 || d.BusyNs != 100 || d.StallNs != 30 || d.IdleNs != 20 ||
		d.L2Accesses != 40 || d.L2Misses != 10 || d.BusTx != 7 {
		t.Fatalf("Sub = %+v", d)
	}
	s := a.Add(d)
	if s != b {
		t.Fatalf("Add round trip: %+v != %+v", s, b)
	}
}

func TestSubCounterReset(t *testing.T) {
	// A counter source reset between snapshots leaves prev above cur; a
	// raw uint64 subtraction would wrap to ~2^64 and blow up MPKI and
	// utilization. The delta must instead be the post-reset value.
	prev := Counters{Instructions: 1_000_000, BusyNs: 5_000, StallNs: 500, IdleNs: 4_000, L2Accesses: 900, L2Misses: 300, BusTx: 250}
	cur := Counters{Instructions: 2_000, BusyNs: 100, StallNs: 10, IdleNs: 50, L2Accesses: 40, L2Misses: 8, BusTx: 6}
	d := cur.Sub(prev)
	if d != cur {
		t.Fatalf("reset delta = %+v, want the post-reset snapshot %+v", d, cur)
	}
	if m := d.MPKI(); m < 0 || m > 1000 {
		t.Fatalf("MPKI after reset = %v, not sane", m)
	}
	// Mixed case: only some fields went backwards.
	mixed := Counters{Instructions: 1_500_000, BusyNs: 2_000, L2Misses: 400}
	d = mixed.Sub(prev)
	if d.Instructions != 500_000 {
		t.Fatalf("monotone field delta = %d, want 500000", d.Instructions)
	}
	if d.BusyNs != 2_000 {
		t.Fatalf("reset field delta = %d, want 2000", d.BusyNs)
	}
	if d.L2Misses != 100 {
		t.Fatalf("L2Misses delta = %d, want 100", d.L2Misses)
	}
	if d.IdleNs != 0 || d.BusTx != 0 {
		t.Fatalf("zeroed fields must clamp to 0: %+v", d)
	}
}

func TestDerivedMetrics(t *testing.T) {
	c := Counters{Instructions: 2000, BusyNs: 750, StallNs: 250, IdleNs: 250, L2Accesses: 40, L2Misses: 10}
	if got := c.Utilization(); got != 0.75 {
		t.Fatalf("Utilization = %v", got)
	}
	if got := c.MPKI(); got != 5 {
		t.Fatalf("MPKI = %v, want 5", got)
	}
	if got := c.Window(); got != time.Duration(1000) {
		t.Fatalf("Window = %v", got)
	}
}

func TestDerivedMetricsZeroSafe(t *testing.T) {
	var c Counters
	if c.Utilization() != 0 || c.MPKI() != 0 {
		t.Fatal("zero counters must yield zero metrics")
	}
}

func TestSamplerWindows(t *testing.T) {
	s := NewSampler()
	first := s.Window(0, Counters{Instructions: 100, BusyNs: 10})
	if first.Instructions != 100 {
		t.Fatalf("first window = %+v", first)
	}
	second := s.Window(0, Counters{Instructions: 250, BusyNs: 30})
	if second.Instructions != 150 || second.BusyNs != 20 {
		t.Fatalf("second window = %+v", second)
	}
	// Independent core streams.
	other := s.Window(1, Counters{Instructions: 40})
	if other.Instructions != 40 {
		t.Fatalf("core-1 window = %+v", other)
	}
	s.Reset()
	again := s.Window(0, Counters{Instructions: 300})
	if again.Instructions != 300 {
		t.Fatalf("post-reset window = %+v", again)
	}
}
