package experiment

import (
	"fmt"
	"sort"
	"time"

	"dora/internal/asciichart"
	"dora/internal/clock"
	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/sim"
	"dora/internal/stats"
	"dora/internal/tablefmt"
)

// ComboResult is one workload run under one governor.
type ComboResult struct {
	Combo    WorkloadCombo
	Governor string
	sim.Result
	// NormPPW is PPW normalized to the interactive baseline on the
	// same workload.
	NormPPW float64
}

// Matrix runs the 54 workload combinations under the given governors
// and normalizes PPW to interactive. Results are memoized per suite.
func (s *Suite) Matrix(governors []string) (map[string][]ComboResult, error) {
	combos := Combos()
	var wanted []RunOptions
	for _, c := range combos {
		wanted = append(wanted, RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "interactive"})
		for _, gov := range governors {
			if gov != "interactive" {
				wanted = append(wanted, RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: gov})
			}
		}
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	base := make([]sim.Result, len(combos))
	for i, c := range combos {
		r, err := s.Run(RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "interactive"})
		if err != nil {
			return nil, err
		}
		base[i] = r
	}
	out := map[string][]ComboResult{}
	for _, gov := range governors {
		rows := make([]ComboResult, len(combos))
		for i, c := range combos {
			var r sim.Result
			var err error
			if gov == "interactive" {
				r = base[i]
			} else {
				r, err = s.Run(RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: gov})
				if err != nil {
					return nil, err
				}
			}
			norm := 0.0
			if base[i].PPW > 0 {
				norm = r.PPW / base[i].PPW
			}
			rows[i] = ComboResult{Combo: c, Governor: gov, Result: r, NormPPW: norm}
		}
		out[gov] = rows
	}
	return out, nil
}

// Fig7Result reproduces Figure 7: mean normalized PPW per governor for
// Webpage-Inclusive / Webpage-Neutral / All workloads (a), and the
// load-time CDFs per governor (b).
type Fig7Result struct {
	Governors []string
	// MeanNormPPW[gov] -> [inclusive, neutral, all]
	MeanNormPPW map[string][3]float64
	LoadTimes   map[string]*stats.CDF
	// ViolationFrac[gov] is the fraction of workloads missing 3 s.
	ViolationFrac map[string]float64
}

// Fig7 runs the governor comparison.
func (s *Suite) Fig7() (*Fig7Result, error) {
	govs := []string{"interactive", "performance", "DL", "EE", "DORA"}
	matrix, err := s.Matrix(govs)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{
		Governors:     govs,
		MeanNormPPW:   map[string][3]float64{},
		LoadTimes:     map[string]*stats.CDF{},
		ViolationFrac: map[string]float64{},
	}
	for _, gov := range govs {
		var inc, neu, all []float64
		var times []float64
		miss := 0
		for _, row := range matrix[gov] {
			all = append(all, row.NormPPW)
			if row.Combo.Inclusive {
				inc = append(inc, row.NormPPW)
			} else {
				neu = append(neu, row.NormPPW)
			}
			times = append(times, row.LoadTime.Seconds())
			if !row.DeadlineMet {
				miss++
			}
		}
		res.MeanNormPPW[gov] = [3]float64{stats.Mean(inc), stats.Mean(neu), stats.Mean(all)}
		res.LoadTimes[gov] = stats.NewCDF(times)
		res.ViolationFrac[gov] = float64(miss) / float64(len(matrix[gov]))
	}
	return res, nil
}

// Table renders Figure 7.
func (r *Fig7Result) Table() string {
	t := tablefmt.New("Figure 7a — mean energy efficiency (PPW) normalized to interactive",
		"governor", "webpage_inclusive", "webpage_neutral", "all", "deadline_miss_pct")
	for _, gov := range r.Governors {
		m := r.MeanNormPPW[gov]
		t.AddRow(gov, m[0], m[1], m[2], r.ViolationFrac[gov]*100)
	}
	out := t.String()
	t2 := tablefmt.New("Figure 7b — load time CDF per governor",
		"load_time_s", "interactive", "performance", "DL", "EE", "DORA")
	grid := []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6}
	for _, x := range grid {
		row := []any{fmt.Sprintf("%.1f", x)}
		for _, gov := range r.Governors {
			row = append(row, r.LoadTimes[gov].At(x))
		}
		t2.AddRow(row...)
	}
	var series []asciichart.Series
	for _, gov := range r.Governors {
		var pts []asciichart.Point
		for x := 0.25; x <= 7; x += 0.25 {
			pts = append(pts, asciichart.Point{X: x, Y: r.LoadTimes[gov].At(x)})
		}
		series = append(series, asciichart.Series{Name: gov, Points: pts})
	}
	return out + "\n" + t2.String() + "\n" +
		asciichart.Plot("fraction of loads completed vs load time (s)", series, 56, 10)
}

// Fig8Result reproduces Figure 8: per-workload normalized PPW, sorted
// by DORA's improvement, with the f_E<f_D region on the left.
type Fig8Result struct {
	// Rows are sorted by DORA's normalized PPW ascending.
	Rows []Fig8Row
}

// Fig8Row is one workload's normalized PPW under each governor.
type Fig8Row struct {
	Combo WorkloadCombo
	Norm  map[string]float64
	// EEViolates marks the f_E < f_D regime (EE misses the deadline).
	EEViolates bool
}

// Fig8 builds the per-workload comparison.
func (s *Suite) Fig8() (*Fig8Result, error) {
	govs := []string{"interactive", "performance", "DL", "EE", "DORA"}
	matrix, err := s.Matrix(govs)
	if err != nil {
		return nil, err
	}
	n := len(matrix["DORA"])
	rows := make([]Fig8Row, n)
	for i := 0; i < n; i++ {
		norm := map[string]float64{}
		for _, gov := range govs {
			norm[gov] = matrix[gov][i].NormPPW
		}
		rows[i] = Fig8Row{
			Combo:      matrix["DORA"][i].Combo,
			Norm:       norm,
			EEViolates: !matrix["EE"][i].DeadlineMet,
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return rows[a].Norm["DORA"] < rows[b].Norm["DORA"]
	})
	return &Fig8Result{Rows: rows}, nil
}

// Table renders Figure 8.
func (r *Fig8Result) Table() string {
	t := tablefmt.New("Figure 8 — per-workload PPW normalized to interactive (sorted by DORA)",
		"idx", "page", "intensity", "interactive", "performance", "DL", "EE", "DORA", "fE<fD")
	var labels []string
	var values []float64
	for i, row := range r.Rows {
		t.AddRow(i+1, row.Combo.Page, row.Combo.Intensity.String(),
			row.Norm["interactive"], row.Norm["performance"], row.Norm["DL"],
			row.Norm["EE"], row.Norm["DORA"], row.EEViolates)
		if i%3 == 0 { // decimate for the chart
			labels = append(labels, fmt.Sprintf("%s/%s", row.Combo.Page, row.Combo.Intensity))
			values = append(values, row.Norm["DORA"]-1)
		}
	}
	return t.String() + "\n" +
		asciichart.Bars("DORA PPW gain vs interactive (every 3rd workload)", labels, values, 40)
}

// Fig9Cell is one governor's outcome for a page/intensity pair.
type Fig9Cell struct {
	Governor string
	FreqMHz  int // modal frequency during the load
	NormPPW  float64
	LoadTime time.Duration
}

// Fig9Result reproduces Figure 9: the Amazon (low complexity) and IMDB
// (high complexity) drill-down across interference intensities.
type Fig9Result struct {
	// Cells[page][intensity] -> per-governor outcomes.
	Cells map[string]map[corun.Intensity][]Fig9Cell
}

// Fig9 runs the drill-down.
func (s *Suite) Fig9() (*Fig9Result, error) {
	govs := []string{"performance", "DL", "EE", "DORA"}
	res := &Fig9Result{Cells: map[string]map[corun.Intensity][]Fig9Cell{}}
	var wanted []RunOptions
	for _, page := range []string{"Amazon", "IMDB"} {
		for _, in := range []corun.Intensity{corun.Low, corun.Medium, corun.High} {
			wanted = append(wanted, RunOptions{Page: page, Intensity: in, Governor: "interactive"})
			for _, gov := range govs {
				wanted = append(wanted, RunOptions{Page: page, Intensity: in, Governor: gov})
			}
		}
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	for _, page := range []string{"Amazon", "IMDB"} {
		res.Cells[page] = map[corun.Intensity][]Fig9Cell{}
		for _, in := range []corun.Intensity{corun.Low, corun.Medium, corun.High} {
			base, err := s.Run(RunOptions{Page: page, Intensity: in, Governor: "interactive"})
			if err != nil {
				return nil, err
			}
			for _, gov := range govs {
				r, err := s.Run(RunOptions{Page: page, Intensity: in, Governor: gov})
				if err != nil {
					return nil, err
				}
				norm := 0.0
				if base.PPW > 0 {
					norm = r.PPW / base.PPW
				}
				res.Cells[page][in] = append(res.Cells[page][in], Fig9Cell{
					Governor: gov,
					FreqMHz:  modalFreq(r),
					NormPPW:  norm,
					LoadTime: r.LoadTime,
				})
			}
		}
	}
	return res, nil
}

func modalFreq(r sim.Result) int {
	freqs := make([]int, 0, len(r.FreqResidency))
	for f := range r.FreqResidency {
		freqs = append(freqs, f)
	}
	sort.Ints(freqs)
	// Scanning in ascending frequency order makes ties deterministic
	// (the lowest tied frequency wins) instead of map-order-dependent.
	best, bestD := 0, time.Duration(0)
	for _, f := range freqs {
		if d := r.FreqResidency[f]; d > bestD {
			best, bestD = f, d
		}
	}
	return best
}

// Table renders Figure 9.
func (r *Fig9Result) Table() string {
	t := tablefmt.New("Figure 9 — Amazon vs IMDB under low/medium/high interference",
		"page", "intensity", "governor", "modal_freq_mhz", "ppw_vs_interactive", "load_time_s")
	for _, page := range []string{"Amazon", "IMDB"} {
		for _, in := range []corun.Intensity{corun.Low, corun.Medium, corun.High} {
			for _, c := range r.Cells[page][in] {
				t.AddRow(page, in.String(), c.Governor, c.FreqMHz, c.NormPPW, c.LoadTime.Seconds())
			}
		}
	}
	return t.String()
}

// Fig10Result reproduces Figure 10: (a) DORA vs DORA_no_lkg energy
// efficiency, (b) device power vs frequency at room vs low ambient and
// the resulting f_opt shift.
type Fig10Result struct {
	DORAPPW  float64
	NoLkgPPW float64
	// PowerByFreq[freq] -> [room, cold] average device power.
	PowerByFreq map[int][2]float64
	FOptRoom    int
	FOptCold    int
}

// Fig10 runs the leakage ablation on Amazon + medium interference. The
// device is prewarmed to the paper's observed operating band (~58 degC
// at sustained high frequency) so leakage is a first-order term, as it
// is on a phone that has been browsing for a while.
func (s *Suite) Fig10() (*Fig10Result, error) {
	const page = "Amazon"
	const hot = 56.0
	warm := 3 * time.Second // let temperature develop
	wanted := []RunOptions{
		{Page: page, Intensity: corun.Medium, Governor: "DORA", Warmup: warm, StartTempC: hot},
		{Page: page, Intensity: corun.Medium, Governor: "DORA_no_lkg", Warmup: warm, StartTempC: hot},
	}
	for _, opp := range s.SoC.OPPs.PaperSubset() {
		wanted = append(wanted,
			RunOptions{Page: page, Intensity: corun.Medium, FixedMHz: opp.FreqMHz, Governor: "fixed", Warmup: warm, StartTempC: hot},
			RunOptions{Page: page, Intensity: corun.Medium, FixedMHz: opp.FreqMHz, Governor: "fixed", AmbientC: 10, Warmup: warm})
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	dora, err := s.Run(RunOptions{Page: page, Intensity: corun.Medium, Governor: "DORA", Warmup: warm, StartTempC: hot})
	if err != nil {
		return nil, err
	}
	noLkg, err := s.Run(RunOptions{Page: page, Intensity: corun.Medium, Governor: "DORA_no_lkg", Warmup: warm, StartTempC: hot})
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{
		DORAPPW:     dora.PPW,
		NoLkgPPW:    noLkg.PPW,
		PowerByFreq: map[int][2]float64{},
	}
	bestRoom, bestCold := 0.0, 0.0
	for _, opp := range s.SoC.OPPs.PaperSubset() {
		room, err := s.Run(RunOptions{Page: page, Intensity: corun.Medium, FixedMHz: opp.FreqMHz, Governor: "fixed", Warmup: warm, StartTempC: hot})
		if err != nil {
			return nil, err
		}
		cold, err := s.Run(RunOptions{Page: page, Intensity: corun.Medium, FixedMHz: opp.FreqMHz, Governor: "fixed", AmbientC: 10, Warmup: warm})
		if err != nil {
			return nil, err
		}
		res.PowerByFreq[opp.FreqMHz] = [2]float64{room.AvgPowerW, cold.AvgPowerW}
		if room.DeadlineMet && room.PPW > bestRoom {
			bestRoom, res.FOptRoom = room.PPW, opp.FreqMHz
		}
		if cold.DeadlineMet && cold.PPW > bestCold {
			bestCold, res.FOptCold = cold.PPW, opp.FreqMHz
		}
	}
	return res, nil
}

// Table renders Figure 10.
func (r *Fig10Result) Table() string {
	t := tablefmt.New("Figure 10b — device power (W) vs frequency at room vs low ambient temperature",
		"freq_mhz", "room_power_w", "cold_power_w")
	var freqs []int
	for f := range r.PowerByFreq {
		freqs = append(freqs, f)
	}
	sort.Ints(freqs)
	for _, f := range freqs {
		p := r.PowerByFreq[f]
		t.AddRow(f, p[0], p[1])
	}
	gain := 0.0
	if r.NoLkgPPW > 0 {
		gain = (r.DORAPPW/r.NoLkgPPW - 1) * 100
	}
	return t.String() + fmt.Sprintf(
		"Figure 10a: DORA PPW %.4f vs DORA_no_lkg %.4f (%+.1f%%); f_opt room=%d MHz, cold=%d MHz\n",
		r.DORAPPW, r.NoLkgPPW, gain, r.FOptRoom, r.FOptCold)
}

// Fig11Result reproduces Figure 11: DORA's chosen frequency across
// deadlines from 1 to 10 seconds for MSN + high interference.
type Fig11Result struct {
	DeadlinesS []int
	FreqMHz    []int
	Regime     []string // "fD" or "fE" per deadline
}

// Fig11 runs the deadline sweep.
func (s *Suite) Fig11() (*Fig11Result, error) {
	res := &Fig11Result{}
	wanted := []RunOptions{{Page: "MSN", Intensity: corun.High, Governor: "DORA", Deadline: 100 * time.Second}}
	for d := 1; d <= 10; d++ {
		wanted = append(wanted, RunOptions{Page: "MSN", Intensity: corun.High, Governor: "DORA", Deadline: time.Duration(d) * time.Second})
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	// f_E for this workload: DORA's choice under an effectively
	// unconstrained deadline.
	relaxed, err := s.doraModalFreq("MSN", corun.High, 100*time.Second)
	if err != nil {
		return nil, err
	}
	for d := 1; d <= 10; d++ {
		f, err := s.doraModalFreq("MSN", corun.High, time.Duration(d)*time.Second)
		if err != nil {
			return nil, err
		}
		res.DeadlinesS = append(res.DeadlinesS, d)
		res.FreqMHz = append(res.FreqMHz, f)
		reg := "fD"
		if f == relaxed {
			reg = "fE"
		}
		res.Regime = append(res.Regime, reg)
	}
	return res, nil
}

func (s *Suite) doraModalFreq(page string, in corun.Intensity, deadline time.Duration) (int, error) {
	r, err := s.Run(RunOptions{Page: page, Intensity: in, Governor: "DORA", Deadline: deadline})
	if err != nil {
		return 0, err
	}
	return modalFreq(r), nil
}

// Table renders Figure 11.
func (r *Fig11Result) Table() string {
	t := tablefmt.New("Figure 11 — DORA frequency selection vs load-time deadline (MSN + high intensity)",
		"deadline_s", "fopt_mhz", "regime")
	for i := range r.DeadlinesS {
		t.AddRow(r.DeadlinesS[i], r.FreqMHz[i], r.Regime[i])
	}
	return t.String()
}

// HeadlineResult collects the abstract's quantitative claims.
type HeadlineResult struct {
	MeanGainAll       float64 // mean PPW gain vs interactive (paper: 16%)
	MeanGainInclusive float64 // paper: 18%
	MeanGainNeutral   float64 // paper: 10%
	MaxGain           float64 // paper: up to 35%
	DeadlineMetFrac   float64 // DORA, counting infeasible-at-max as met-equivalent (paper: 82% feasible)
	FeasibleFrac      float64 // fraction of workloads feasible at max frequency
	EEGain            float64 // paper: 19%
	EEViolationFrac   float64 // paper: 21%
	TimeModelAcc      float64 // paper: 97.5%
	PowerModelAcc     float64 // paper: 96%
}

// Headline computes the summary numbers from the full matrix.
func (s *Suite) Headline() (*HeadlineResult, error) {
	matrix, err := s.Matrix([]string{"interactive", "performance", "DL", "EE", "DORA"})
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{
		TimeModelAcc:  1 - s.TrainReport.TimeMetrics.MAPE,
		PowerModelAcc: 1 - s.TrainReport.PowerMetrics.MAPE,
	}
	var incl, neu, all []float64
	feasible, met, eeMiss := 0, 0, 0
	var eeGains []float64
	for i, row := range matrix["DORA"] {
		gain := row.NormPPW - 1
		all = append(all, gain)
		if row.Combo.Inclusive {
			incl = append(incl, gain)
		} else {
			neu = append(neu, gain)
		}
		if gain > res.MaxGain {
			res.MaxGain = gain
		}
		if row.DeadlineMet {
			met++
		}
		// Feasibility: could performance (max frequency) meet it?
		if matrix["performance"][i].DeadlineMet {
			feasible++
		}
		eeGains = append(eeGains, matrix["EE"][i].NormPPW-1)
		if !matrix["EE"][i].DeadlineMet {
			eeMiss++
		}
	}
	n := float64(len(matrix["DORA"]))
	res.MeanGainAll = stats.Mean(all)
	res.MeanGainInclusive = stats.Mean(incl)
	res.MeanGainNeutral = stats.Mean(neu)
	res.DeadlineMetFrac = float64(met) / n
	res.FeasibleFrac = float64(feasible) / n
	res.EEGain = stats.Mean(eeGains)
	res.EEViolationFrac = float64(eeMiss) / n
	return res, nil
}

// Table renders the headline summary against the paper's numbers.
func (r *HeadlineResult) Table() string {
	t := tablefmt.New("Headline — reproduction vs paper",
		"metric", "measured", "paper")
	t.AddRowStrings("DORA mean PPW gain (all)", fmt.Sprintf("%+.1f%%", r.MeanGainAll*100), "+16%")
	t.AddRowStrings("DORA mean PPW gain (inclusive)", fmt.Sprintf("%+.1f%%", r.MeanGainInclusive*100), "+18%")
	t.AddRowStrings("DORA mean PPW gain (neutral)", fmt.Sprintf("%+.1f%%", r.MeanGainNeutral*100), "+10%")
	t.AddRowStrings("DORA max PPW gain", fmt.Sprintf("%+.1f%%", r.MaxGain*100), "+35%")
	t.AddRowStrings("deadline met (DORA)", fmt.Sprintf("%.0f%%", r.DeadlineMetFrac*100), "82% (feasible set)")
	t.AddRowStrings("feasible at max frequency", fmt.Sprintf("%.0f%%", r.FeasibleFrac*100), "82%")
	t.AddRowStrings("EE mean PPW gain", fmt.Sprintf("%+.1f%%", r.EEGain*100), "+19%")
	t.AddRowStrings("EE deadline violations", fmt.Sprintf("%.0f%%", r.EEViolationFrac*100), "21%")
	t.AddRowStrings("load-time model accuracy", fmt.Sprintf("%.1f%%", r.TimeModelAcc*100), "97.5%")
	t.AddRowStrings("power model accuracy", fmt.Sprintf("%.1f%%", r.PowerModelAcc*100), "96%")
	return t.String()
}

// OverheadResult reproduces the Section V-H controller-cost analysis.
type OverheadResult struct {
	Decisions        int
	MeanDecideCost   time.Duration // wall-clock cost of one Algorithm 1 pass
	DecideFracOfSlot float64       // cost relative to the 100 ms interval
	SwitchesPerLoad  float64
	SwitchTimeFrac   float64 // DVFS transition time vs load time
}

// Overhead measures DORA's controller costs across the 54 workloads.
func (s *Suite) Overhead() (*OverheadResult, error) {
	if _, _, err := s.NewGovernor("DORA"); err != nil {
		return nil, err
	}
	res := &OverheadResult{}
	var totalSwitches int
	var totalSwitchTime, totalLoadTime time.Duration
	combos := Combos()
	var wanted []RunOptions
	for _, c := range combos {
		wanted = append(wanted, RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "DORA"})
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	for _, c := range combos {
		r, err := s.Run(RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "DORA"})
		if err != nil {
			return nil, err
		}
		totalSwitches += r.Switches
		totalSwitchTime += time.Duration(r.Switches) * s.SoC.OPPs.SwitchLatency
		totalLoadTime += r.LoadTime
	}
	// Decision cost: time one Algorithm 1 pass directly.
	ctxPage := []float64{2000, 300, 250, 200, 260}
	probe := RunOptions{Page: "MSN", Intensity: corun.High, Governor: "DORA"}
	if _, err := s.Run(probe); err != nil {
		return nil, err
	}
	const reps = 200
	clk := clock.Or(s.Clock)
	start := clk.Now()
	for i := 0; i < reps; i++ {
		if _, err := s.Models.PredictAll(s.SoC.OPPs, ctxPage, 8, 1, 45, Deadline, true); err != nil {
			return nil, err
		}
	}
	res.MeanDecideCost = clk.Since(start) / reps
	res.Decisions = reps
	res.DecideFracOfSlot = float64(res.MeanDecideCost) / float64(core.ModelInterval)
	res.SwitchesPerLoad = float64(totalSwitches) / float64(len(combos))
	if totalLoadTime > 0 {
		res.SwitchTimeFrac = float64(totalSwitchTime) / float64(totalLoadTime)
	}
	return res, nil
}

// Table renders the overhead analysis.
func (r *OverheadResult) Table() string {
	t := tablefmt.New("Section V-H — DORA controller overhead",
		"metric", "value")
	t.AddRowStrings("Algorithm 1 pass cost", r.MeanDecideCost.String())
	t.AddRowStrings("cost vs 100 ms interval", fmt.Sprintf("%.3f%%", r.DecideFracOfSlot*100))
	t.AddRowStrings("frequency switches per load", fmt.Sprintf("%.1f", r.SwitchesPerLoad))
	t.AddRowStrings("switch stall vs load time", fmt.Sprintf("%.3f%%", r.SwitchTimeFrac*100))
	return t.String()
}
