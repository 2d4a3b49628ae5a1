// Package dvfs models the dynamic voltage and frequency scaling
// capability of the simulated SoC: the operating performance point
// (OPP) table, the voltage associated with each core frequency, the
// piecewise mapping from core frequency to memory bus frequency that
// the paper exploits for its piecewise models, and the cost of a
// frequency switch.
//
// The table mirrors the Qualcomm MSM8974 (Snapdragon 800) in the Google
// Nexus 5: 14 settings from 300 MHz to 2265 MHz.
package dvfs

import (
	"errors"
	"fmt"
	"time"
)

// OPP is one operating performance point.
type OPP struct {
	FreqMHz    int     // core clock, MHz
	VoltageV   float64 // supply voltage at this frequency
	BusFreqMHz int     // memory bus clock mapped to this core frequency
}

// FreqGHz returns the core frequency in GHz.
func (o OPP) FreqGHz() float64 { return float64(o.FreqMHz) / 1000 }

// FreqHz returns the core frequency in Hz.
func (o OPP) FreqHz() float64 { return float64(o.FreqMHz) * 1e6 }

// Table is an ordered list of OPPs (ascending frequency).
type Table struct {
	opps []OPP
	// SwitchLatency is the wall-clock cost of a frequency transition
	// (PLL relock + voltage ramp); during it the core stalls.
	SwitchLatency time.Duration
	// SwitchEnergyJ is the fixed energy cost of one transition.
	SwitchEnergyJ float64
}

var errEmptyTable = errors.New("dvfs: empty OPP table")

// NewTable validates and wraps an OPP list. Frequencies must be
// strictly ascending and voltages nondecreasing.
func NewTable(opps []OPP, switchLatency time.Duration, switchEnergyJ float64) (*Table, error) {
	if len(opps) == 0 {
		return nil, errEmptyTable
	}
	for i, o := range opps {
		if o.FreqMHz <= 0 || o.VoltageV <= 0 || o.BusFreqMHz <= 0 {
			return nil, fmt.Errorf("dvfs: OPP %d has non-positive fields: %+v", i, o)
		}
		if i > 0 {
			if o.FreqMHz <= opps[i-1].FreqMHz {
				return nil, fmt.Errorf("dvfs: OPP frequencies not strictly ascending at %d", i)
			}
			if o.VoltageV < opps[i-1].VoltageV {
				return nil, fmt.Errorf("dvfs: OPP voltages decrease at %d", i)
			}
			if o.BusFreqMHz < opps[i-1].BusFreqMHz {
				return nil, fmt.Errorf("dvfs: bus frequencies decrease at %d", i)
			}
		}
	}
	return &Table{
		opps:          append([]OPP(nil), opps...),
		SwitchLatency: switchLatency,
		SwitchEnergyJ: switchEnergyJ,
	}, nil
}

// MSM8974 returns the OPP table of the Snapdragon 800 as shipped in the
// Nexus 5: 14 frequency steps from 300 to 2265 MHz. Voltages follow the
// published Krait 400 voltage ladder shape (~0.80 V at the floor to
// ~1.10 V at the ceiling). Core frequencies map onto four memory bus
// tiers, giving the paper's piecewise core/bus structure.
func MSM8974() *Table {
	freqs := []int{300, 422, 652, 729, 883, 960, 1036, 1190, 1267, 1497, 1574, 1728, 1958, 2265}
	t, err := NewTable(buildMSMOPPs(freqs), 120*time.Microsecond, 35e-6)
	if err != nil {
		panic("dvfs: invalid built-in MSM8974 table: " + err.Error())
	}
	return t
}

func buildMSMOPPs(freqs []int) []OPP {
	opps := make([]OPP, len(freqs))
	lo, hi := float64(freqs[0]), float64(freqs[len(freqs)-1])
	for i, f := range freqs {
		// Voltage rises superlinearly across the ladder: near-threshold
		// at the floor, turbo-binned at the ceiling.
		frac := (float64(f) - lo) / (hi - lo)
		v := 0.78 + 0.38*(0.35*frac+0.65*frac*frac)
		opps[i] = OPP{FreqMHz: f, VoltageV: round3(v), BusFreqMHz: busTier(f)}
	}
	return opps
}

// busTier is the piecewise core->bus frequency map: sets of core
// frequencies share one memory bus frequency, as on the real SoC.
func busTier(coreMHz int) int {
	switch {
	case coreMHz <= 729:
		return 333
	case coreMHz <= 1267:
		return 533
	case coreMHz <= 1728:
		return 800
	default:
		return 933
	}
}

func round3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }

// Len returns the number of OPPs.
func (t *Table) Len() int { return len(t.opps) }

// At returns the i-th OPP (ascending frequency order).
func (t *Table) At(i int) OPP { return t.opps[i] }

// All returns a copy of the OPP list.
func (t *Table) All() []OPP { return append([]OPP(nil), t.opps...) }

// Min returns the lowest OPP.
func (t *Table) Min() OPP { return t.opps[0] }

// Max returns the highest OPP.
func (t *Table) Max() OPP { return t.opps[len(t.opps)-1] }

// IndexOf returns the index of the OPP with the given core frequency,
// or -1 when absent.
func (t *Table) IndexOf(freqMHz int) int {
	for i, o := range t.opps {
		if o.FreqMHz == freqMHz {
			return i
		}
	}
	return -1
}

// ByFreq returns the OPP with exactly freqMHz.
func (t *Table) ByFreq(freqMHz int) (OPP, error) {
	if i := t.IndexOf(freqMHz); i >= 0 {
		return t.opps[i], nil
	}
	return OPP{}, fmt.Errorf("dvfs: no OPP at %d MHz", freqMHz)
}

// Ceil returns the lowest OPP whose frequency is >= freqMHz, clamping
// to the table maximum.
func (t *Table) Ceil(freqMHz int) OPP {
	for _, o := range t.opps {
		if o.FreqMHz >= freqMHz {
			return o
		}
	}
	return t.Max()
}

// Neighbors returns the OPPs one step below and above the OPP at
// freqMHz. At the table edges the same OPP is returned for the missing
// side.
func (t *Table) Neighbors(freqMHz int) (below, above OPP, err error) {
	i := t.IndexOf(freqMHz)
	if i < 0 {
		return OPP{}, OPP{}, fmt.Errorf("dvfs: no OPP at %d MHz", freqMHz)
	}
	below, above = t.opps[i], t.opps[i]
	if i > 0 {
		below = t.opps[i-1]
	}
	if i < len(t.opps)-1 {
		above = t.opps[i+1]
	}
	return below, above, nil
}

// BusGroups partitions the table into the sets of OPPs that share one
// bus frequency, in ascending bus-frequency order. The paper builds one
// piecewise model per group.
func (t *Table) BusGroups() [][]OPP {
	var groups [][]OPP
	var cur []OPP
	for _, o := range t.opps {
		if len(cur) > 0 && cur[0].BusFreqMHz != o.BusFreqMHz {
			groups = append(groups, cur)
			cur = nil
		}
		cur = append(cur, o)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// PaperSubset returns the eight OPPs closest to the frequency points
// labelled in the paper's figures (0.7, 0.8, 0.9, 1.1, 1.5, 1.7, 1.9,
// 2.2 GHz), for figure reproduction.
func (t *Table) PaperSubset() []OPP {
	targets := []int{729, 883, 960, 1190, 1497, 1728, 1958, 2265}
	out := make([]OPP, 0, len(targets))
	for _, f := range targets {
		out = append(out, t.Ceil(f))
	}
	return out
}
