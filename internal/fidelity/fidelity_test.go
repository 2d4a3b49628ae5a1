package fidelity

import (
	"strings"
	"testing"

	"dora/internal/soc"
)

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{Exact, Sampled} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseMode(""); err != nil || got != Exact {
		t.Fatalf(`ParseMode("") = %v, %v; want exact`, got, err)
	}
	for _, bad := range []string{"Sampled", "fast", " exact"} {
		_, err := ParseMode(bad)
		if err == nil {
			t.Fatalf("ParseMode(%q) accepted", bad)
		}
		want := `fidelity: unknown mode "` + bad + `" (want exact or sampled)`
		if err.Error() != want {
			t.Fatalf("ParseMode(%q) error %q, want %q", bad, err, want)
		}
	}
	if s := Mode(7).String(); s != "Mode(7)" {
		t.Fatalf("Mode(7).String() = %q", s)
	}
}

// slice builds a two-core slice: core 0 with the given L2 MPKI, stall
// fraction and utilization of a 1 ms slice, core 1 idle.
func slice(mpki, stall, util, bus float64, freq int) *soc.SliceStats {
	const sliceNs, instr = 1_000_000, 1_000_000
	busy := int64(util * sliceNs)
	return &soc.SliceStats{
		Cores: []soc.CoreSliceStats{
			{
				BusyNs: busy, StallNs: int64(stall * float64(busy)),
				Instructions: instr, L2Miss: uint64(mpki * instr / 1000),
			},
			{IdleNs: sliceNs},
		},
		BusUtil: bus,
		FreqMHz: freq,
	}
}

func TestSignatureBuckets(t *testing.T) {
	const sliceNs = 1_000_000
	active := []string{"layout", ""}
	base := Signature(slice(10, 0.30, 0.50, 0.20, 960), sliceNs, active)
	if again := Signature(slice(10, 0.30, 0.50, 0.20, 960), sliceNs, active); again != base {
		t.Fatal("Signature is not a pure function of its inputs")
	}
	same := map[string]Phase{
		// Each stays inside its bucket: MPKI half-log2, stall and
		// utilization in sixteenths, bus utilization in 32nds.
		"mpki":  Signature(slice(10.2, 0.30, 0.50, 0.20, 960), sliceNs, active),
		"stall": Signature(slice(10, 0.31, 0.50, 0.20, 960), sliceNs, active),
		"util":  Signature(slice(10, 0.30, 0.51, 0.20, 960), sliceNs, active),
		"bus":   Signature(slice(10, 0.30, 0.50, 0.21, 960), sliceNs, active),
		// The segment kind itself is deliberately not part of the phase.
		"kind": Signature(slice(10, 0.30, 0.50, 0.20, 960), sliceNs, []string{"script", ""}),
	}
	for what, ph := range same {
		if ph != base {
			t.Errorf("%s change inside its bucket moved the phase", what)
		}
	}
	crossed := map[string]Phase{
		"mpki":   Signature(slice(12, 0.30, 0.50, 0.20, 960), sliceNs, active),
		"stall":  Signature(slice(10, 0.33, 0.50, 0.20, 960), sliceNs, active),
		"util":   Signature(slice(10, 0.30, 0.57, 0.20, 960), sliceNs, active),
		"bus":    Signature(slice(10, 0.30, 0.50, 0.25, 960), sliceNs, active),
		"opp":    Signature(slice(10, 0.30, 0.50, 0.20, 1574), sliceNs, active),
		"active": Signature(slice(10, 0.30, 0.50, 0.20, 960), sliceNs, []string{"", ""}),
	}
	seen := map[Phase]string{base: "base"}
	for what, ph := range crossed {
		if prev, dup := seen[ph]; dup {
			t.Errorf("%s bucket crossing gives the same phase as %s", what, prev)
		}
		seen[ph] = what
	}
	// Out-of-range rates saturate instead of wrapping.
	if hot := Signature(slice(10, 0.30, 0.50, 9, 960), sliceNs, active); hot.bus != 255 {
		t.Errorf("bus bucket of a 900%% utilization = %d, want 255", hot.bus)
	}
}

func TestLogBucket(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want uint8
	}{
		{-1, 0}, {0, 0}, {0.1, 1}, {0.5, 2}, {1.2, 3}, {10, 7}, {10.2, 7}, {12, 8},
	} {
		if got := logBucket(c.v); got != c.want {
			t.Errorf("logBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	prev := uint8(0)
	for v := 0.0; v < 1e4; v = v*1.01 + 0.001 {
		b := logBucket(v)
		if b < prev {
			t.Fatalf("logBucket not monotone at %v: %d after %d", v, b, prev)
		}
		prev = b
	}
}

func TestDefaultParams(t *testing.T) {
	for _, p := range []Params{{}, {Interval: 1, Stable: 0}, {Interval: -3, Stable: -1}} {
		if got := p.withDefaults(); got != DefaultParams() {
			t.Errorf("%+v.withDefaults() = %+v, want %+v", p, got, DefaultParams())
		}
	}
	if got := (Params{Interval: 2, Stable: 1}).withDefaults(); got != (Params{Interval: 2, Stable: 1}) {
		t.Errorf("set fields overwritten: %+v", got)
	}
}

// testPhases name the phases of the detector tests.
var testPhases = func() map[byte]Phase {
	a := Phase{freqMHz: 960, bus: 6}
	a.cores[0] = coreBuckets{mpki: 7, stall: 4, util: 8, active: true}
	b := a
	b.cores[0].mpki, b.bus = 11, 12
	return map[byte]Phase{'a': a, 'b': b}
}()

// run feeds the detector one slice per plan byte — a testPhases name,
// or 'u' an unstable (switch-stall) slice — and extrapolates between
// detailed slices whenever it may. It returns the per-slice decisions:
// 'D' detailed, 'x' extrapolated.
func run(d *Detector, plan string) string {
	var out strings.Builder
	for i := 0; i < len(plan); {
		if d.CanExtrapolate() {
			d.NoteExtrapolated()
			out.WriteByte('x')
			continue
		}
		d.Observe(testPhases[plan[i]], plan[i] == 'u')
		out.WriteByte('D')
		i++
	}
	return out.String()
}

func TestDetectorCadence(t *testing.T) {
	d := NewDetector(Params{Interval: 4, Stable: 2})
	// Two equal phases establish the phase; then one slice in four is
	// detailed. A new phase or an unstable slice restarts the streak.
	got := run(d, "aaaab"+"bu"+"bb")
	want := "DD" + "xxxD" + "xxxD" + "xxxD" + "D" + "xxxD" + "D" + "D"
	if got != want {
		t.Fatalf("decisions %q, want %q", got, want)
	}
	if !d.CanExtrapolate() {
		t.Fatal("stable phase after the last observe must extrapolate")
	}

	one := NewDetector(Params{Interval: 4, Stable: 1})
	if got := run(one, "ab"); got != "Dxxx"+"D" {
		t.Fatalf("Stable=1 decisions %q", got)
	}
}

func TestForceDetail(t *testing.T) {
	d := NewDetector(Params{Interval: 4, Stable: 2})
	run(d, "aa")
	if !d.CanExtrapolate() || !d.Stable() {
		t.Fatal("phase not established")
	}
	// ForceDetail discards the phase: Stable fresh slices are needed.
	d.ForceDetail()
	if d.CanExtrapolate() || d.Stable() {
		t.Fatal("ForceDetail must make the next slice detailed")
	}
	d.Observe(testPhases['a'], false)
	if d.CanExtrapolate() || d.Stable() {
		t.Fatal("ForceDetail must discard the stability streak")
	}
	d.Observe(testPhases['a'], false)
	if !d.CanExtrapolate() {
		t.Fatal("Stable slices after ForceDetail must re-establish the phase")
	}
	// A due cadence slice is detailed inside a phase that stays stable.
	for range 3 {
		d.NoteExtrapolated()
	}
	if d.CanExtrapolate() || !d.Stable() {
		t.Fatal("a due cadence must stop extrapolation without unsettling the phase")
	}
}

func TestStateRoundTrip(t *testing.T) {
	donor := NewDetector(Params{Interval: 5, Stable: 2})
	run(donor, "abbb")
	donor.NoteExtrapolated()
	st := donor.State()
	if st.Phase != testPhases['b'] || st.Streak != 3 || st.SinceDetail != 1 {
		t.Fatalf("State() = %+v", st)
	}
	clone := NewDetector(Params{Interval: 5, Stable: 2})
	clone.RestoreState(st)
	if clone.State() != st {
		t.Fatalf("restored state %+v, want %+v", clone.State(), st)
	}
	const rest = "bbabbbub"
	if a, b := run(donor, rest), run(clone, rest); a != b {
		t.Fatalf("restored detector diverges: %q vs %q", b, a)
	}
	if donor.State() != clone.State() {
		t.Fatalf("final states differ: %+v vs %+v", donor.State(), clone.State())
	}
}
