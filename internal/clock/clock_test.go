package clock

import (
	"testing"
	"time"
)

func TestManual(t *testing.T) {
	m := NewManualAt(time.Unix(1000, 0))
	start := m.Now()
	if d := m.Since(start); d != 0 {
		t.Fatalf("Since before Advance = %v, want 0", d)
	}
	m.Advance(250 * time.Millisecond)
	if d := m.Since(start); d != 250*time.Millisecond {
		t.Fatalf("Since after Advance = %v, want 250ms", d)
	}
}

func TestWallMonotonic(t *testing.T) {
	var c Clock = Wall{}
	start := c.Now()
	if d := c.Since(start); d < 0 {
		t.Fatalf("Wall.Since went backwards: %v", d)
	}
}

func TestOr(t *testing.T) {
	if _, ok := Or(nil).(Wall); !ok {
		t.Fatalf("Or(nil) = %T, want Wall", Or(nil))
	}
	m := NewManualAt(time.Unix(0, 0))
	if Or(m) != m {
		t.Fatalf("Or(m) did not return m")
	}
}
