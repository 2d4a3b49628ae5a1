package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"dora/internal/asciichart"
	"dora/internal/corun"
	"dora/internal/pool"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/stats"
	"dora/internal/tablefmt"
	"dora/internal/webgen"
)

// Fig1Row is one (frequency, intensity) cell of Figure 1.
type Fig1Row struct {
	FreqMHz   int
	Intensity corun.Intensity
	LoadTime  time.Duration
}

// Fig1Result reproduces Figure 1: Reddit load time versus frequency
// under none/low/medium/high interference, against 2/3/4 s deadlines.
type Fig1Result struct {
	Page string
	Rows []Fig1Row
}

// Fig1 runs the Figure 1 characterization.
func (s *Suite) Fig1() (*Fig1Result, error) {
	res := &Fig1Result{Page: "Reddit"}
	var wanted []RunOptions
	for _, opp := range s.SoC.OPPs.PaperSubset() {
		for _, in := range []corun.Intensity{corun.None, corun.Low, corun.Medium, corun.High} {
			wanted = append(wanted, RunOptions{Page: res.Page, Intensity: in, FixedMHz: opp.FreqMHz, Governor: "fixed"})
		}
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	for _, o := range wanted {
		r, err := s.Run(o)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig1Row{FreqMHz: o.FixedMHz, Intensity: o.Intensity, LoadTime: r.LoadTime})
	}
	return res, nil
}

// Table renders the figure as text.
func (r *Fig1Result) Table() string {
	t := tablefmt.New(
		fmt.Sprintf("Figure 1 — %s load time (s) vs core frequency under interference (deadlines 2/3/4 s)", r.Page),
		"freq_mhz", "alone", "low", "medium", "high", "spread")
	byFreq := map[int]map[corun.Intensity]float64{}
	var freqs []int
	for _, row := range r.Rows {
		if byFreq[row.FreqMHz] == nil {
			byFreq[row.FreqMHz] = map[corun.Intensity]float64{}
			freqs = append(freqs, row.FreqMHz)
		}
		byFreq[row.FreqMHz][row.Intensity] = row.LoadTime.Seconds()
	}
	sort.Ints(freqs)
	for _, f := range freqs {
		m := byFreq[f]
		t.AddRow(f, m[corun.None], m[corun.Low], m[corun.Medium], m[corun.High],
			m[corun.High]-m[corun.None])
	}
	var series []asciichart.Series
	for _, in := range []corun.Intensity{corun.None, corun.Low, corun.Medium, corun.High} {
		var pts []asciichart.Point
		for _, f := range freqs {
			pts = append(pts, asciichart.Point{X: float64(f), Y: byFreq[f][in]})
		}
		series = append(series, asciichart.Series{Name: in.String(), Points: pts})
	}
	return t.String() + "\n" +
		asciichart.Plot("load time (s) vs core frequency (MHz)", series, 56, 10)
}

// Fig2Row is one page's Figure 2 measurements.
type Fig2Row struct {
	Page      string
	Intensity corun.Intensity
	LoadTime  time.Duration
	// ExtraEnergyFrac is E_delta / (E_B + E_O + E_delta): the share of
	// co-run energy that exists only because of interference.
	ExtraEnergyFrac float64
}

// Fig2Result reproduces Figure 2: load time growth (a) and additional
// energy cost (b) for four pages under rising interference at 2.2 GHz.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 runs the Figure 2 characterization.
func (s *Suite) Fig2() (*Fig2Result, error) {
	const freq = 2265
	pages := []string{"Aliexpress", "Hao123", "ESPN", "Imgur"}
	res := &Fig2Result{}
	var wanted []RunOptions
	for pi, page := range pages {
		wanted = append(wanted, RunOptions{Page: page, Intensity: corun.None, FixedMHz: freq, Governor: "fixed"})
		for _, in := range []corun.Intensity{corun.Low, corun.Medium, corun.High} {
			wanted = append(wanted, RunOptions{Page: page, Intensity: in, KernelIdx: pi, FixedMHz: freq, Governor: "fixed"})
		}
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	for pi, page := range pages {
		// E_B: browser alone at the same frequency.
		alone, err := s.Run(RunOptions{Page: page, Intensity: corun.None, FixedMHz: freq, Governor: "fixed"})
		if err != nil {
			return nil, err
		}
		for _, in := range []corun.Intensity{corun.Low, corun.Medium, corun.High} {
			co, err := s.Run(RunOptions{Page: page, Intensity: in, KernelIdx: pi, FixedMHz: freq, Governor: "fixed"})
			if err != nil {
				return nil, err
			}
			k, err := corun.PickFor(in, pi)
			if err != nil {
				return nil, err
			}
			opp, err := s.SoC.OPPs.ByFreq(freq)
			if err != nil {
				return nil, err
			}
			// E_O: the energy the kernel would take, alone at the same
			// frequency, to execute the instructions it actually
			// executed during the co-run — minus the device baseline,
			// which is already accounted inside E_B.
			kernelEnergy, kernelTime, err := s.kernelReplayEnergy(k, opp, s.Seed+int64(pi), co.CoRunInstructions)
			if err != nil {
				return nil, err
			}
			baselineEnergy := (s.SoC.Power.BaselineW + s.SoC.Power.UncoreIdleW) * kernelTime.Seconds()
			eo := kernelEnergy - baselineEnergy
			if eo < 0 {
				eo = 0
			}
			eb := alone.EnergyJ
			total := co.EnergyJ
			delta := total - eb - eo
			frac := 0.0
			if total > 0 && delta > 0 {
				frac = delta / total
			}
			res.Rows = append(res.Rows, Fig2Row{
				Page: page, Intensity: in,
				LoadTime:        co.LoadTime,
				ExtraEnergyFrac: frac,
			})
		}
	}
	return res, nil
}

// Table renders Figure 2.
func (r *Fig2Result) Table() string {
	t := tablefmt.New("Figure 2 — load time (a) and additional energy cost E_delta (b) vs co-run intensity @2.2 GHz",
		"page", "intensity", "load_time_s", "extra_energy_pct")
	for _, row := range r.Rows {
		t.AddRow(row.Page, row.Intensity.String(), row.LoadTime.Seconds(), row.ExtraEnergyFrac*100)
	}
	return t.String()
}

// Fig3Point is one frequency of a Figure 3 sweep.
type Fig3Point struct {
	FreqMHz  int
	LoadTime time.Duration
	PPW      float64
	Met      bool
}

// Fig3Sweep is one page's frequency sweep.
type Fig3Sweep struct {
	Page       string
	Points     []Fig3Point
	FE         int // PPW-optimal frequency
	FD         int // lowest deadline-meeting frequency (0 if none)
	FOpt       int // Eq. (1) optimum
	MaxFreqPPW float64
	OptPPW     float64
}

// Fig3Result reproduces Figure 3: the ESPN (f_D > f_E) and MSN
// (f_D <= f_E) regimes, and the PPW lost by pinning the max frequency.
type Fig3Result struct {
	Sweeps []Fig3Sweep
}

// Fig3 runs the sweeps with a medium-intensity co-runner.
func (s *Suite) Fig3() (*Fig3Result, error) {
	res := &Fig3Result{}
	var wanted []RunOptions
	for _, page := range []string{"ESPN", "MSN"} {
		for _, opp := range s.SoC.OPPs.PaperSubset() {
			wanted = append(wanted, RunOptions{Page: page, Intensity: corun.Medium, KernelIdx: 1, FixedMHz: opp.FreqMHz, Governor: "fixed"})
		}
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	for _, page := range []string{"ESPN", "MSN"} {
		sw := Fig3Sweep{Page: page}
		for _, opp := range s.SoC.OPPs.PaperSubset() {
			// KernelIdx 1 selects bfs, the representative medium-
			// intensity co-runner for this figure.
			r, err := s.Run(RunOptions{Page: page, Intensity: corun.Medium, KernelIdx: 1, FixedMHz: opp.FreqMHz, Governor: "fixed"})
			if err != nil {
				return nil, err
			}
			sw.Points = append(sw.Points, Fig3Point{
				FreqMHz: opp.FreqMHz, LoadTime: r.LoadTime, PPW: r.PPW, Met: r.DeadlineMet,
			})
		}
		best := 0.0
		for _, p := range sw.Points {
			if p.PPW > best {
				best, sw.FE = p.PPW, p.FreqMHz
			}
			if p.Met && sw.FD == 0 {
				sw.FD = p.FreqMHz
			}
			if p.FreqMHz == 2265 {
				sw.MaxFreqPPW = p.PPW
			}
		}
		// Eq. (1): f_opt = f_E if f_D <= f_E else f_D.
		switch {
		case sw.FD == 0:
			sw.FOpt = 2265
		case sw.FD <= sw.FE:
			sw.FOpt = sw.FE
		default:
			sw.FOpt = sw.FD
		}
		for _, p := range sw.Points {
			if p.FreqMHz == sw.FOpt {
				sw.OptPPW = p.PPW
			}
		}
		res.Sweeps = append(res.Sweeps, sw)
	}
	return res, nil
}

// Table renders Figure 3.
func (r *Fig3Result) Table() string {
	t := tablefmt.New("Figure 3 — load time and PPW vs frequency (medium interference); f_E vs f_D regimes",
		"page", "freq_mhz", "load_time_s", "ppw", "meets_3s")
	for _, sw := range r.Sweeps {
		for _, p := range sw.Points {
			t.AddRow(sw.Page, p.FreqMHz, p.LoadTime.Seconds(), p.PPW, p.Met)
		}
	}
	out := t.String()
	var series []asciichart.Series
	for _, sw := range r.Sweeps {
		gain := 0.0
		if sw.MaxFreqPPW > 0 {
			gain = (sw.OptPPW/sw.MaxFreqPPW - 1) * 100
		}
		out += fmt.Sprintf("%s: f_E=%d MHz, f_D=%d MHz, f_opt=%d MHz, PPW gain over max-frequency: %+.1f%%\n",
			sw.Page, sw.FE, sw.FD, sw.FOpt, gain)
		var pts []asciichart.Point
		for _, p := range sw.Points {
			pts = append(pts, asciichart.Point{X: float64(p.FreqMHz), Y: p.PPW})
		}
		series = append(series, asciichart.Series{Name: sw.Page, Points: pts})
	}
	return out + "\n" + asciichart.Plot("PPW vs core frequency (MHz)", series, 56, 10)
}

// TableIIIRow classifies one page or kernel.
type TableIIIRow struct {
	Name     string
	Kind     string // "page" or "kernel"
	Value    float64
	Class    string
	Expected string
	Match    bool
}

// TableIIIResult reproduces Table III: pages classified by solo load
// time at max frequency; kernels by solo L2 MPKI.
type TableIIIResult struct {
	Rows []TableIIIRow
}

// TableIII runs the classification.
func (s *Suite) TableIII() (*TableIIIResult, error) {
	res := &TableIIIResult{}
	var wanted []RunOptions
	for _, spec := range webgen.Specs() {
		wanted = append(wanted, RunOptions{Page: spec.Name, Intensity: corun.None, FixedMHz: 2265, Governor: "fixed"})
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	for _, spec := range webgen.Specs() {
		r, err := s.Run(RunOptions{Page: spec.Name, Intensity: corun.None, FixedMHz: 2265, Governor: "fixed"})
		if err != nil {
			return nil, err
		}
		class := "low"
		if r.LoadTime > 2*time.Second {
			class = "high"
		}
		res.Rows = append(res.Rows, TableIIIRow{
			Name: spec.Name, Kind: "page",
			Value:    r.LoadTime.Seconds(),
			Class:    class,
			Expected: spec.Class.String(),
			Match:    class == spec.Class.String(),
		})
	}
	kernels := corun.Kernels()
	mpkis := make([]float64, len(kernels))
	//doralint:allow detflow pool width (DORA_WORKERS) only schedules independent kernels; each MPKI lands at a fixed index, so observables are width-invariant
	if err := pool.Run(len(kernels), s.Workers, func(i int) error {
		v, err := s.kernelMPKI(kernels[i])
		mpkis[i] = v
		return err
	}); err != nil {
		return nil, err
	}
	for ki, k := range kernels {
		mpki := mpkis[ki]
		class := "low"
		switch {
		case mpki > 7:
			class = "high"
		case mpki >= 1:
			class = "medium"
		}
		res.Rows = append(res.Rows, TableIIIRow{
			Name: k.Name, Kind: "kernel",
			Value:    mpki,
			Class:    class,
			Expected: k.Intensity.String(),
			Match:    class == k.Intensity.String(),
		})
	}
	return res, nil
}

// Matches reports how many rows land in their paper class.
func (r *TableIIIResult) Matches() (ok, total int) {
	for _, row := range r.Rows {
		total++
		if row.Match {
			ok++
		}
	}
	return
}

// Table renders Table III.
func (r *TableIIIResult) Table() string {
	t := tablefmt.New("Table III — page load-time classes (solo, 2.265 GHz) and kernel L2 MPKI classes",
		"name", "kind", "value", "class", "paper_class", "match")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Kind, row.Value, row.Class, row.Expected, row.Match)
	}
	ok, total := r.Matches()
	return t.String() + fmt.Sprintf("classification agreement: %d/%d\n", ok, total)
}

// Fig5Result reproduces Figure 5: cumulative distributions of the
// performance (a) and power (b) model prediction errors.
type Fig5Result struct {
	TimeMAPE    float64
	PowerMAPE   float64
	TimeCDF     *stats.CDF
	PowerCDF    *stats.CDF
	HoldoutMAPE float64
}

// Fig5 summarizes model accuracy from the suite's training reports.
func (s *Suite) Fig5() *Fig5Result {
	return &Fig5Result{
		TimeMAPE:    s.TrainReport.TimeMetrics.MAPE,
		PowerMAPE:   s.TrainReport.PowerMetrics.MAPE,
		TimeCDF:     stats.NewCDF(s.TrainReport.TimeErrors),
		PowerCDF:    stats.NewCDF(s.TrainReport.PowerErrors),
		HoldoutMAPE: s.HoldoutReport.TimeMetrics.MAPE,
	}
}

// Table renders Figure 5.
func (r *Fig5Result) Table() string {
	t := tablefmt.New("Figure 5 — prediction error CDFs",
		"error_bound", "time_model_cdf", "power_model_cdf")
	for _, x := range []float64{0.01, 0.02, 0.05, 0.10, 0.15, 0.20} {
		t.AddRow(fmt.Sprintf("%.0f%%", x*100), r.TimeCDF.At(x), r.PowerCDF.At(x))
	}
	return t.String() + fmt.Sprintf(
		"mean error: load time %.2f%% (paper: 2.5%%), power %.2f%% (paper: 4.0%%); holdout load time %.2f%%\n",
		r.TimeMAPE*100, r.PowerMAPE*100, r.HoldoutMAPE*100)
}

// Fig6Result reproduces Figure 6: the PPW curve for YouTube co-run with
// a high-intensity kernel, and the load-time/power deltas at the
// neighbours of f_opt that make DORA's choice robust to model error.
type Fig6Result struct {
	Points                 []Fig3Point
	FOpt                   int
	DeltaTDown, DeltaPDown float64 // at f_opt-1, percent
	DeltaTUp, DeltaPUp     float64 // at f_opt+1, percent
}

// Fig6 runs the sensitivity analysis.
func (s *Suite) Fig6() (*Fig6Result, error) {
	res := &Fig6Result{}
	type meas struct {
		t, p, ppw float64
	}
	byFreq := map[int]meas{}
	var ladder []int
	var wanted []RunOptions
	for _, opp := range s.SoC.OPPs.PaperSubset() {
		wanted = append(wanted, RunOptions{Page: "Youtube", Intensity: corun.High, FixedMHz: opp.FreqMHz, Governor: "fixed"})
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	for _, opp := range s.SoC.OPPs.PaperSubset() {
		r, err := s.Run(RunOptions{Page: "Youtube", Intensity: corun.High, FixedMHz: opp.FreqMHz, Governor: "fixed"})
		if err != nil {
			return nil, err
		}
		byFreq[opp.FreqMHz] = meas{r.LoadTime.Seconds(), r.AvgPowerW, r.PPW}
		ladder = append(ladder, opp.FreqMHz)
		res.Points = append(res.Points, Fig3Point{FreqMHz: opp.FreqMHz, LoadTime: r.LoadTime, PPW: r.PPW, Met: r.DeadlineMet})
	}
	best, bestIdx := 0.0, 0
	for i, f := range ladder {
		if byFreq[f].ppw > best {
			best, res.FOpt, bestIdx = byFreq[f].ppw, f, i
		}
	}
	opt := byFreq[res.FOpt]
	if bestIdx > 0 {
		below := byFreq[ladder[bestIdx-1]]
		res.DeltaTDown = (below.t/opt.t - 1) * 100
		res.DeltaPDown = (below.p/opt.p - 1) * 100
	}
	if bestIdx < len(ladder)-1 {
		above := byFreq[ladder[bestIdx+1]]
		res.DeltaTUp = (above.t/opt.t - 1) * 100
		res.DeltaPUp = (above.p/opt.p - 1) * 100
	}
	return res, nil
}

// ErrorTolerance returns the largest symmetric model error (fraction)
// that cannot flip DORA's f_opt choice, per the paper's Section V-B
// argument: discretization protects the choice as long as estimated
// PPW at f_opt stays above its neighbours'.
func (r *Fig6Result) ErrorTolerance() float64 {
	var opt, bestNeighbor float64
	for _, p := range r.Points {
		if p.FreqMHz == r.FOpt {
			opt = p.PPW
		}
	}
	for _, p := range r.Points {
		if p.FreqMHz != r.FOpt && p.PPW > bestNeighbor {
			bestNeighbor = p.PPW
		}
	}
	if opt <= 0 {
		return 0
	}
	// PPW scales as 1/((1+te)(1+pe)); a symmetric error e on both
	// models flips the choice when (1+e)^2 >= opt/neighbor.
	return math.Sqrt(opt/bestNeighbor) - 1
}

// Table renders Figure 6.
func (r *Fig6Result) Table() string {
	t := tablefmt.New("Figure 6 — PPW vs frequency, Youtube + high-intensity co-runner",
		"freq_mhz", "load_time_s", "ppw", "is_fopt")
	for _, p := range r.Points {
		t.AddRow(p.FreqMHz, p.LoadTime.Seconds(), p.PPW, p.FreqMHz == r.FOpt)
	}
	var pts []asciichart.Point
	for _, p := range r.Points {
		pts = append(pts, asciichart.Point{X: float64(p.FreqMHz), Y: p.PPW})
	}
	chart := asciichart.Plot("PPW vs core frequency (MHz)",
		[]asciichart.Series{{Name: "Youtube+high", Points: pts}}, 56, 10)
	return t.String() + fmt.Sprintf(
		"f_opt=%d MHz; neighbours: dt=%+.1f%%/dP=%+.1f%% (below), dt=%+.1f%%/dP=%+.1f%% (above); tolerated model error ~%.1f%%\n",
		r.FOpt, r.DeltaTDown, r.DeltaPDown, r.DeltaTUp, r.DeltaPUp, r.ErrorTolerance()*100) + "\n" + chart
}

// kernelMPKI measures a kernel's solo L2 MPKI at max frequency,
// memoized per kernel name so concurrent callers share one simulation.
func (s *Suite) kernelMPKI(k corun.Kernel) (float64, error) {
	r, _, err := s.kernels.Do(context.Background(), k.Name, func(context.Context) (sim.Result, error) {
		return s.measureKernel(k)
	})
	return r.AvgCoRunMPKI, err
}

// measureKernel runs the solo-kernel characterization, consulting the
// persistent run cache first.
func (s *Suite) measureKernel(k corun.Kernel) (sim.Result, error) {
	opp, err := s.SoC.OPPs.ByFreq(2265)
	if err != nil {
		return sim.Result{}, err
	}
	var key string
	if s.RunCache != nil {
		key = runcache.Key("kernel-mpki", s.fingerprint(), s.Seed, k.Name)
		var r sim.Result
		if s.RunCache.Get(key, &r) {
			s.Metrics.Counter("dora_suite_runcache_hits_total", "measurements served from the persistent run cache").Inc()
			return r, nil
		}
	}
	m, err := newKernelMachine(s, opp, k)
	if err != nil {
		return sim.Result{}, err
	}
	s.RunCache.Put(key, m)
	return m, nil
}
