package dvfs

import (
	"testing"
	"testing/quick"
	"time"
)

func TestMSM8974Shape(t *testing.T) {
	tab := MSM8974()
	if tab.Len() != 14 {
		t.Fatalf("Len = %d, want 14 (paper: 14 settings)", tab.Len())
	}
	if tab.Min().FreqMHz != 300 || tab.Max().FreqMHz != 2265 {
		t.Fatalf("range = %d..%d, want 300..2265", tab.Min().FreqMHz, tab.Max().FreqMHz)
	}
	prev := OPP{}
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		if o.VoltageV < 0.77 || o.VoltageV > 1.17 {
			t.Fatalf("voltage %v out of Krait ladder range", o.VoltageV)
		}
		if i > 0 {
			if o.FreqMHz <= prev.FreqMHz || o.VoltageV < prev.VoltageV || o.BusFreqMHz < prev.BusFreqMHz {
				t.Fatalf("table not monotone at %d: %+v after %+v", i, o, prev)
			}
		}
		prev = o
	}
	if tab.SwitchLatency <= 0 || tab.SwitchEnergyJ <= 0 {
		t.Fatal("switch costs must be positive")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, time.Microsecond, 1e-6); err == nil {
		t.Fatal("empty table must error")
	}
	bad := []OPP{{FreqMHz: 500, VoltageV: 1, BusFreqMHz: 100}, {FreqMHz: 400, VoltageV: 1, BusFreqMHz: 100}}
	if _, err := NewTable(bad, 0, 0); err == nil {
		t.Fatal("descending frequency must error")
	}
	bad2 := []OPP{{FreqMHz: 400, VoltageV: 1.1, BusFreqMHz: 100}, {FreqMHz: 500, VoltageV: 1.0, BusFreqMHz: 100}}
	if _, err := NewTable(bad2, 0, 0); err == nil {
		t.Fatal("descending voltage must error")
	}
	bad3 := []OPP{{FreqMHz: 400, VoltageV: 0, BusFreqMHz: 100}}
	if _, err := NewTable(bad3, 0, 0); err == nil {
		t.Fatal("zero voltage must error")
	}
}

func TestLookups(t *testing.T) {
	tab := MSM8974()
	o, err := tab.ByFreq(1497)
	if err != nil || o.FreqMHz != 1497 {
		t.Fatalf("ByFreq(1497) = %+v, %v", o, err)
	}
	if _, err := tab.ByFreq(1000); err == nil {
		t.Fatal("ByFreq of absent frequency must error")
	}
	if tab.IndexOf(300) != 0 || tab.IndexOf(2265) != 13 || tab.IndexOf(1) != -1 {
		t.Fatal("IndexOf wrong")
	}
	if tab.Ceil(1000).FreqMHz != 1036 {
		t.Fatalf("Ceil(1000) = %d", tab.Ceil(1000).FreqMHz)
	}
	if tab.Ceil(9999).FreqMHz != 2265 {
		t.Fatal("Ceil above table must clamp to max")
	}
}

func TestNeighbors(t *testing.T) {
	tab := MSM8974()
	lo, hi, err := tab.Neighbors(960)
	if err != nil {
		t.Fatal(err)
	}
	if lo.FreqMHz != 883 || hi.FreqMHz != 1036 {
		t.Fatalf("Neighbors(960) = %d/%d", lo.FreqMHz, hi.FreqMHz)
	}
	lo, hi, _ = tab.Neighbors(300)
	if lo.FreqMHz != 300 || hi.FreqMHz != 422 {
		t.Fatal("edge neighbors at min wrong")
	}
	lo, hi, _ = tab.Neighbors(2265)
	if lo.FreqMHz != 1958 || hi.FreqMHz != 2265 {
		t.Fatal("edge neighbors at max wrong")
	}
	if _, _, err := tab.Neighbors(777); err == nil {
		t.Fatal("absent frequency must error")
	}
}

func TestBusGroups(t *testing.T) {
	tab := MSM8974()
	groups := tab.BusGroups()
	if len(groups) != 4 {
		t.Fatalf("bus groups = %d, want 4 tiers", len(groups))
	}
	total := 0
	for gi, g := range groups {
		total += len(g)
		for _, o := range g {
			if o.BusFreqMHz != g[0].BusFreqMHz {
				t.Fatalf("group %d mixes bus freqs", gi)
			}
		}
		if gi > 0 && g[0].BusFreqMHz <= groups[gi-1][0].BusFreqMHz {
			t.Fatal("groups not ascending in bus frequency")
		}
	}
	if total != tab.Len() {
		t.Fatalf("groups cover %d OPPs, want %d", total, tab.Len())
	}
}

func TestPaperSubset(t *testing.T) {
	sub := MSM8974().PaperSubset()
	if len(sub) != 8 {
		t.Fatalf("paper subset = %d OPPs, want 8", len(sub))
	}
	want := []int{729, 883, 960, 1190, 1497, 1728, 1958, 2265}
	for i, o := range sub {
		if o.FreqMHz != want[i] {
			t.Fatalf("subset[%d] = %d, want %d", i, o.FreqMHz, want[i])
		}
	}
}

func TestFreqConversions(t *testing.T) {
	o := OPP{FreqMHz: 1500}
	if o.FreqGHz() != 1.5 {
		t.Fatalf("FreqGHz = %v", o.FreqGHz())
	}
	if o.FreqHz() != 1.5e9 {
		t.Fatalf("FreqHz = %v", o.FreqHz())
	}
}

// Property: f <= Ceil(f) whenever f is inside table range, and Ceil
// returns a valid table entry.
func TestFloorCeilProperty(t *testing.T) {
	tab := MSM8974()
	f := func(raw uint16) bool {
		f := int(raw)%3000 + 1
		ce := tab.Ceil(f)
		if tab.IndexOf(ce.FreqMHz) < 0 {
			return false
		}
		return f > tab.Max().FreqMHz || ce.FreqMHz >= f
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
