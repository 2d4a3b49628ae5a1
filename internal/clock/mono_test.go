package clock

import (
	"testing"
	"time"
)

func TestMonoNeverGoesBackwards(t *testing.T) {
	var c Mono
	prev := c.MonoNow()
	for i := 0; i < 1000; i++ {
		now := c.MonoNow()
		if now < prev {
			t.Fatalf("monotonic clock went backwards: %d after %d", now, prev)
		}
		prev = now
	}
}

func TestMonoSinceMeasuresElapsed(t *testing.T) {
	var c Mono
	start := c.MonoNow()
	time.Sleep(10 * time.Millisecond)
	d := MonoSince(c, start)
	if d < 10*time.Millisecond {
		t.Fatalf("MonoSince = %v, want >= 10ms", d)
	}
	if d > 10*time.Second {
		t.Fatalf("MonoSince = %v, implausibly large", d)
	}
}

// fixedMono is a MonoClock stopped at one reading.
type fixedMono MonoTime

func (f fixedMono) MonoNow() MonoTime { return MonoTime(f) }

func TestMonoOr(t *testing.T) {
	if _, ok := MonoOr(nil).(Mono); !ok {
		t.Fatal("MonoOr(nil) should be the real Mono clock")
	}
	m := fixedMono(1)
	if MonoOr(m) != MonoClock(m) {
		t.Fatal("MonoOr(m) should pass m through")
	}
}
