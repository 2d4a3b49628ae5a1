package core

import (
	"errors"
	"testing"
	"time"
)

// Every table name builds a governor that reports that name, at the
// interval the suite, dorad and dorasim have always used; model-based
// names refuse nil models with ErrNeedsModels, and DL carries the
// documented 0.93 deadline margin.
func TestGovernorTable(t *testing.T) {
	m := syntheticModels(t)
	names := GovernorNames()
	if len(names) != 9 {
		t.Fatalf("table has %d names: %v", len(names), names)
	}
	for _, name := range names {
		g, interval, err := NewGovernor(name, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("governor %q reports name %q", name, g.Name())
		}
		want := 20 * time.Millisecond
		switch {
		case NeedsModels(name):
			want = ModelInterval
			if _, _, err := NewGovernor(name, nil); !errors.Is(err, ErrNeedsModels) {
				t.Errorf("%s without models: err = %v, want ErrNeedsModels", name, err)
			}
		case name == "ondemand":
			want = 50 * time.Millisecond
		}
		if interval != want {
			t.Errorf("%s: interval %v, want %v", name, interval, want)
		}
	}
	dl, _, _ := NewGovernor("DL", m)
	if got := dl.(*Governor).opts.DeadlineMargin; got != 0.93 {
		t.Errorf("DL deadline margin = %v, want 0.93", got)
	}
	if _, _, err := NewGovernor("turbo", m); err == nil || NeedsModels("turbo") {
		t.Error("unknown governor must error and need no models")
	}
}
