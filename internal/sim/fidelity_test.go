package sim

// Validation harness for -fidelity=sampled: replays page × co-runner
// cells in both fidelity modes and gates the sampled mode's
// per-observable relative error (load time, energy, peak temperature)
// against the committed budget — ≤2% mean, ≤5% max. The full 18-page
// matrix — interactive, fixed-OPP and DORA columns, with wall-clock
// speedup and a detector Interval sweep — lives behind
// DORA_BENCH_SAMPLED=1 and is driven by scripts/bench_sampled.sh to
// produce BENCH_SAMPLED.json; the unguarded tests here are the CI
// smoke harness.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/runcache"
	"dora/internal/soc"
	"dora/internal/webgen"
)

// The committed error budget (also quoted in DESIGN.md §10 and
// enforced against the full matrix by scripts/bench_sampled.sh).
const (
	budgetMeanErr = 0.02
	budgetMaxErr  = 0.05
)

// sampledOpts returns the canonical experiment options for fidelity
// validation: the Nexus 5 device, the interactive governor, seed 1.
func sampledOpts(mode fidelity.Mode, ckpts *CheckpointStore) Options {
	return Options{
		SoC:         soc.NexusFive(),
		Governor:    governor.NewInteractive(governor.DefaultInteractiveConfig()),
		Seed:        1,
		Fidelity:    mode,
		Checkpoints: ckpts,
	}
}

func fidelityWorkload(t testing.TB, page, kernel string) Workload {
	t.Helper()
	spec, err := webgen.ByName(page)
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{Page: spec}
	if kernel != "" {
		k, err := corun.ByName(kernel)
		if err != nil {
			t.Fatal(err)
		}
		wl.CoRun = &k
	}
	return wl
}

func relErr(exact, approx float64) float64 {
	if exact == 0 {
		if approx == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(approx-exact) / math.Abs(exact)
}

// fidelityCell is one matrix cell's paired measurement.
type fidelityCell struct {
	Page        string  `json:"page"`
	CoRun       string  `json:"corun"`
	LoadErr     float64 `json:"load_time_rel_err"`
	EnergyErr   float64 `json:"energy_rel_err"`
	PeakTempErr float64 `json:"peak_temp_rel_err"`
	ExactMs     float64 `json:"exact_wall_ms"`
	SampledMs   float64 `json:"sampled_wall_ms"`
}

// runCell measures one (page, kernel) cell in both modes under the
// exact-mode options opts, and returns the per-observable relative
// errors plus wall-clock times, and the exact result for further
// sampled runs to be measured against.
func runCell(t testing.TB, opts Options, page, kernel string, ckpts *CheckpointStore) (fidelityCell, Result) {
	t.Helper()
	wl := fidelityWorkload(t, page, kernel)

	t0 := time.Now()
	exact, err := LoadPage(opts, wl)
	if err != nil {
		t.Fatalf("exact %s+%s: %v", page, kernel, err)
	}
	dExact := time.Since(t0)

	opts.Fidelity, opts.Checkpoints = fidelity.Sampled, ckpts
	t0 = time.Now()
	samp, err := LoadPage(opts, wl)
	if err != nil {
		t.Fatalf("sampled %s+%s: %v", page, kernel, err)
	}
	dSamp := time.Since(t0)

	c := cellErr(page, kernel, exact, samp)
	c.ExactMs, c.SampledMs = float64(dExact)/1e6, float64(dSamp)/1e6
	return c, exact
}

// cellErr is the per-observable relative error of a sampled result.
func cellErr(page, kernel string, exact, samp Result) fidelityCell {
	return fidelityCell{
		Page:        page,
		CoRun:       kernel,
		LoadErr:     relErr(float64(exact.LoadTime), float64(samp.LoadTime)),
		EnergyErr:   relErr(exact.EnergyJ, samp.EnergyJ),
		PeakTempErr: relErr(exact.MaxSoCTempC, samp.MaxSoCTempC),
	}
}

// summarize returns the per-observable mean and max relative errors
// over a set of cells.
func summarize(cells []fidelityCell) (meanErr, maxErr map[string]float64) {
	meanErr = map[string]float64{}
	maxErr = map[string]float64{}
	obs := func(name string, get func(fidelityCell) float64) {
		var sum, max float64
		for _, c := range cells {
			e := get(c)
			sum += e
			if e > max {
				max = e
			}
		}
		meanErr[name], maxErr[name] = sum/float64(len(cells)), max
	}
	obs("load_time", func(c fidelityCell) float64 { return c.LoadErr })
	obs("energy", func(c fidelityCell) float64 { return c.EnergyErr })
	obs("peak_temp", func(c fidelityCell) float64 { return c.PeakTempErr })
	return meanErr, maxErr
}

// gateBudget asserts the ≤2% mean / ≤5% max per-observable budget
// over summarized errors; label names the cell set in failures.
func gateBudget(t testing.TB, label string, meanErr, maxErr map[string]float64) {
	t.Helper()
	for _, name := range []string{"load_time", "energy", "peak_temp"} {
		if mean := meanErr[name]; mean > budgetMeanErr {
			t.Errorf("%s: %s: mean rel error %.3f%% exceeds %.0f%% budget", label, name, 100*mean, 100*budgetMeanErr)
		}
		if max := maxErr[name]; max > budgetMaxErr {
			t.Errorf("%s: %s: max rel error %.3f%% exceeds %.0f%% budget", label, name, 100*max, 100*budgetMaxErr)
		}
	}
}

// TestSampledErrorBudget is the CI smoke harness: a page × co-runner
// matrix spanning both complexity classes and all co-run kernels,
// gated against the committed error budget. Sampled runs share a
// checkpoint store, so warm-state restore is on the validated path.
func TestSampledErrorBudget(t *testing.T) {
	pages := []string{"Alipay", "Twitter", "Reddit", "IMDB"}
	kernels := []string{"", "backprop", "kmeans"}
	if testing.Short() {
		pages = []string{"Alipay", "Reddit"}
		kernels = []string{"", "backprop"}
	}
	ckpts := NewCheckpointStore()
	var cells []fidelityCell
	for _, kern := range kernels {
		for _, page := range pages {
			c, _ := runCell(t, sampledOpts(fidelity.Exact, nil), page, kern, ckpts)
			cells = append(cells, c)
			t.Logf("%-10s %-8s load %.2f%% energy %.2f%% peakT %.3f%% (exact %.0fms sampled %.0fms)",
				c.Page, c.CoRun, 100*c.LoadErr, 100*c.EnergyErr, 100*c.PeakTempErr, c.ExactMs, c.SampledMs)
		}
	}
	mean, max := summarize(cells)
	gateBudget(t, "smoke matrix", mean, max)
	t.Logf("mean err: load %.3f%% energy %.3f%% peakT %.3f%%; max err: load %.3f%% energy %.3f%% peakT %.3f%%",
		100*mean["load_time"], 100*mean["energy"], 100*mean["peak_temp"],
		100*max["load_time"], 100*max["energy"], 100*max["peak_temp"])
	if ckpts.Len() == 0 {
		t.Error("checkpoint store stayed empty: warm-state path not exercised")
	}
}

// TestSampledCheckpointDeterminism asserts the warm-state restore is
// exact: a run that restores its warmup from a checkpoint left by a
// different page's run is bit-identical to a run that simulates its
// own warmup (and to a run with no checkpoint store at all).
func TestSampledCheckpointDeterminism(t *testing.T) {
	wl := fidelityWorkload(t, "Alipay", "backprop")

	cold, err := LoadPage(sampledOpts(fidelity.Sampled, nil), wl)
	if err != nil {
		t.Fatal(err)
	}

	// Warm a store with a different page (same co-runner and governor:
	// the warm key is page-independent), then load the page of interest
	// from the restored checkpoint.
	ckpts := NewCheckpointStore()
	if _, err := LoadPage(sampledOpts(fidelity.Sampled, ckpts), fidelityWorkload(t, "Reddit", "backprop")); err != nil {
		t.Fatal(err)
	}
	if n := ckpts.Len(); n != 1 {
		t.Fatalf("checkpoint store holds %d entries, want 1", n)
	}
	warm, err := LoadPage(sampledOpts(fidelity.Sampled, ckpts), wl)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-restored run diverged from cold run:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestSampledFixedSeedStable asserts sampled results are a pure
// function of the options: two independent runs are bit-identical.
func TestSampledFixedSeedStable(t *testing.T) {
	wl := fidelityWorkload(t, "Twitter", "kmeans")
	a, err := LoadPage(sampledOpts(fidelity.Sampled, NewCheckpointStore()), wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadPage(sampledOpts(fidelity.Sampled, NewCheckpointStore()), wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sampled runs with identical options diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestSampledCancellation asserts a cancelled context aborts a sampled
// load promptly — the context is polled every slice, including between
// extrapolated slices.
func TestSampledCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	wl := fidelityWorkload(t, "Aliexpress", "backprop")
	t0 := time.Now()
	_, err := LoadPageCtx(ctx, sampledOpts(fidelity.Sampled, nil), wl)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("cancelled sampled load returned nil error")
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled sampled load took %v to abort", elapsed)
	}
}

// benchReport is the BENCH_SAMPLED.json payload: one column per
// governor setup, each gated against the budget at the default
// detector parameters, with an Interval sweep beside it.
type benchReport struct {
	GeneratedBy       string             `json:"generated_by"`
	ConfigFingerprint string             `json:"config_fingerprint"`
	SchemaVersion     int                `json:"schema_version"`
	Seed              int64              `json:"seed"`
	Fidelity          string             `json:"fidelity"`
	Params            fidelity.Params    `json:"params"`
	Pages             int                `json:"pages"`
	CoRuns            []string           `json:"coruns"`
	Budget            map[string]float64 `json:"budget"`
	Columns           []benchColumn      `json:"columns"`
}

// benchColumn is one governor setup's validation record at the
// default detector parameters.
type benchColumn struct {
	Governor      string             `json:"governor"`
	Cells         int                `json:"cells"`
	MeanErr       map[string]float64 `json:"mean_rel_err"`
	MaxErr        map[string]float64 `json:"max_rel_err"`
	ExactWallMs   float64            `json:"exact_wall_ms"`
	SampledWallMs float64            `json:"sampled_wall_ms"`
	Speedup       float64            `json:"campaign_speedup"`
	Checkpoints   int                `json:"warm_checkpoints"`
	Sweep         []sweepPoint       `json:"interval_sweep"`
	PerCell       []fidelityCell     `json:"per_cell"`
}

// sweepPoint is one column's sampled accuracy at one detector
// Interval, against the column's one exact pass. Its runs carry a
// metrics registry for the slice counts, which turns warm checkpoints
// off, so its wall time includes every warmup.
type sweepPoint struct {
	Interval      int                `json:"interval"`
	MeanErr       map[string]float64 `json:"mean_rel_err"`
	MaxErr        map[string]float64 `json:"max_rel_err"`
	Slices        SliceCounts        `json:"slices"`
	DetailedShare float64            `json:"detailed_share"`
	SampledWallMs float64            `json:"sampled_wall_ms"`
	Speedup       float64            `json:"speedup"`
}

// sweepIntervals are the detector cadences every column is measured at.
var sweepIntervals = []int{32, 64, 128}

// matrixColumn is one governor setup of the validation matrix; opts
// returns the exact-mode options of the cell for page index p.
type matrixColumn struct {
	name string
	opts func(p int) Options
}

// matrixColumns are the interactive governor, a fixed OPP per page
// (rotating through the paper's OPP subset, as training campaigns pin
// one OPP per cell), and DORA with the models in
// testdata/dora_models.json (fitted by `doratrain -fast`).
func matrixColumns(t testing.TB) []matrixColumn {
	t.Helper()
	data, err := os.ReadFile("testdata/dora_models.json")
	if err != nil {
		t.Fatal(err)
	}
	var models core.Models
	if err := json.Unmarshal(data, &models); err != nil {
		t.Fatal(err)
	}
	dora, doraInterval, err := core.NewGovernor("DORA", &models)
	if err != nil {
		t.Fatal(err)
	}
	opps := soc.NexusFive().OPPs.PaperSubset()
	return []matrixColumn{
		{"interactive", func(int) Options { return sampledOpts(fidelity.Exact, nil) }},
		{"fixed", func(p int) Options {
			o := sampledOpts(fidelity.Exact, nil)
			o.Governor = governor.NewFixed(opps[p%len(opps)])
			return o
		}},
		{"DORA", func(int) Options {
			o := sampledOpts(fidelity.Exact, nil)
			o.Governor, o.DecisionInterval = dora, doraInterval
			return o
		}},
	}
}

// TestBenchSampledMatrix is the full validation matrix — every
// generated page against every co-run kernel, in both modes, for every
// matrix column, with a shared checkpoint store per column amortizing
// warmups across the sampled page sweep exactly as train.Campaign
// does. Each cell's exact result is also the reference for the
// Interval sweep. It runs only under DORA_BENCH_SAMPLED=1
// (scripts/bench_sampled.sh) and writes the benchReport JSON to
// DORA_BENCH_SAMPLED_OUT, failing on any error- or speedup-budget
// violation at the default parameters.
func TestBenchSampledMatrix(t *testing.T) {
	if os.Getenv("DORA_BENCH_SAMPLED") == "" {
		t.Skip("full fidelity matrix runs under scripts/bench_sampled.sh (DORA_BENCH_SAMPLED=1)")
	}
	pages := webgen.Names()
	kernels := []string{"", "backprop", "kmeans"}
	opts := sampledOpts(fidelity.Sampled, nil)
	report := benchReport{
		GeneratedBy:       "go test -run TestBenchSampledMatrix (scripts/bench_sampled.sh)",
		ConfigFingerprint: ConfigFingerprint(opts.SoC),
		SchemaVersion:     runcache.SchemaVersion,
		Seed:              opts.Seed,
		Fidelity:          fidelity.Sampled.String(),
		Params:            fidelity.DefaultParams(),
		Pages:             len(pages),
		CoRuns:            kernels,
		Budget: map[string]float64{
			"mean_rel_err": budgetMeanErr,
			"max_rel_err":  budgetMaxErr,
			"min_speedup":  5,
		},
	}
	for _, col := range matrixColumns(t) {
		report.Columns = append(report.Columns, runColumn(t, col, pages, kernels))
	}

	out := os.Getenv("DORA_BENCH_SAMPLED_OUT")
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// runColumn measures one matrix column: the timed exact and sampled
// pass per cell, gated against the budget, then the Interval sweep.
func runColumn(t *testing.T, col matrixColumn, pages, kernels []string) benchColumn {
	t.Helper()
	ckpts := NewCheckpointStore()
	def := fidelity.DefaultParams()
	out := benchColumn{Governor: col.name, Sweep: make([]sweepPoint, len(sweepIntervals))}
	sweepCells := make([][]fidelityCell, len(sweepIntervals))
	sweepWall := make([]time.Duration, len(sweepIntervals))
	var exactWall, sampledWall time.Duration
	for _, kern := range kernels {
		for p, page := range pages {
			opts := col.opts(p)
			c, exact := runCell(t, opts, page, kern, ckpts)
			out.PerCell = append(out.PerCell, c)
			exactWall += time.Duration(c.ExactMs * 1e6)
			sampledWall += time.Duration(c.SampledMs * 1e6)
			t.Logf("%-11s %-10s %-8s load %.2f%% energy %.2f%% peakT %.3f%% (exact %.0fms sampled %.0fms)",
				col.name, c.Page, c.CoRun, 100*c.LoadErr, 100*c.EnergyErr, 100*c.PeakTempErr, c.ExactMs, c.SampledMs)

			wl := fidelityWorkload(t, page, kern)
			for i, interval := range sweepIntervals {
				o := opts
				o.FidelityParams = fidelity.Params{Interval: interval, Stable: def.Stable}
				t0 := time.Now()
				samp, slices := countedSampledLoad(t, o, wl)
				sweepWall[i] += time.Since(t0)
				sc := cellErr(page, kern, exact, samp)
				if o.FidelityParams == def && (sc.LoadErr != c.LoadErr || sc.EnergyErr != c.EnergyErr || sc.PeakTempErr != c.PeakTempErr) {
					t.Errorf("%s %s+%s: the sweep's default-Interval run differs from the checkpointed run", col.name, page, kern)
				}
				sweepCells[i] = append(sweepCells[i], sc)
				out.Sweep[i].Slices.add(slices)
			}
		}
	}
	out.Cells = len(out.PerCell)
	out.MeanErr, out.MaxErr = summarize(out.PerCell)
	gateBudget(t, col.name, out.MeanErr, out.MaxErr)
	out.ExactWallMs = float64(exactWall) / 1e6
	out.SampledWallMs = float64(sampledWall) / 1e6
	out.Speedup = float64(exactWall) / float64(sampledWall)
	out.Checkpoints = ckpts.Len()
	t.Logf("%s: %d cells, exact %v, sampled %v, speedup %.2fx, %d warm checkpoints",
		col.name, out.Cells, exactWall.Round(time.Millisecond), sampledWall.Round(time.Millisecond), out.Speedup, out.Checkpoints)
	if out.Speedup < 5 {
		t.Errorf("%s: campaign speedup %.2fx below the 5x budget", col.name, out.Speedup)
	}

	for i, interval := range sweepIntervals {
		sp := &out.Sweep[i]
		sp.Interval = interval
		sp.MeanErr, sp.MaxErr = summarize(sweepCells[i])
		sp.DetailedShare = float64(sp.Slices.detailed()) / float64(sp.Slices.detailed()+sp.Slices.Extrapolated)
		sp.SampledWallMs = float64(sweepWall[i]) / 1e6
		sp.Speedup = float64(exactWall) / float64(sweepWall[i])
		t.Logf("%s Interval %d: detailed %.1f%% %+v, mean err load %.3f%% energy %.3f%% peakT %.3f%%; max load %.3f%% energy %.3f%% peakT %.3f%%; %.2fx without checkpoints",
			col.name, interval, 100*sp.DetailedShare, sp.Slices,
			100*sp.MeanErr["load_time"], 100*sp.MeanErr["energy"], 100*sp.MeanErr["peak_temp"],
			100*sp.MaxErr["load_time"], 100*sp.MaxErr["energy"], 100*sp.MaxErr["peak_temp"], sp.Speedup)
	}
	return out
}

// TestBenchSampledReportFresh is the staleness gate on the committed
// BENCH_SAMPLED.json: the document must have been generated against
// the current result schema, device configuration, detector
// parameters, matrix columns and budget, and every column's recorded
// errors and speedup must satisfy that budget. A change that moves
// sampled results bumps runcache.SchemaVersion, and fails here until
// `make bench-sampled` re-records the file.
func TestBenchSampledReportFresh(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_SAMPLED.json")
	if err != nil {
		t.Fatalf("committed BENCH_SAMPLED.json unreadable (run scripts/bench_sampled.sh): %v", err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_SAMPLED.json does not parse: %v", err)
	}
	if rep.SchemaVersion != runcache.SchemaVersion {
		t.Errorf("schema_version %d is stale (current %d): re-run scripts/bench_sampled.sh", rep.SchemaVersion, runcache.SchemaVersion)
	}
	opts := sampledOpts(fidelity.Sampled, nil)
	if want := ConfigFingerprint(opts.SoC); rep.ConfigFingerprint != want {
		t.Errorf("config_fingerprint %s is stale (current %s): re-run scripts/bench_sampled.sh", rep.ConfigFingerprint, want)
	}
	if want := fidelity.DefaultParams(); rep.Params != want {
		t.Errorf("params %+v are stale (current defaults %+v): re-run scripts/bench_sampled.sh", rep.Params, want)
	}
	if rep.Fidelity != fidelity.Sampled.String() {
		t.Errorf("fidelity = %q, want %q", rep.Fidelity, fidelity.Sampled.String())
	}
	if want := len(webgen.Names()); rep.Pages != want {
		t.Errorf("pages = %d, corpus has %d: re-run scripts/bench_sampled.sh", rep.Pages, want)
	}
	if rep.Budget["mean_rel_err"] != budgetMeanErr || rep.Budget["max_rel_err"] != budgetMaxErr {
		t.Errorf("recorded budget %+v differs from the committed budget (mean %.2f, max %.2f)",
			rep.Budget, budgetMeanErr, budgetMaxErr)
	}
	cols := matrixColumns(t)
	if len(rep.Columns) != len(cols) {
		t.Fatalf("%d columns recorded, the matrix has %d: re-run scripts/bench_sampled.sh", len(rep.Columns), len(cols))
	}
	for i, col := range rep.Columns {
		if col.Governor != cols[i].name {
			t.Errorf("column %d is %q, want %q: re-run scripts/bench_sampled.sh", i, col.Governor, cols[i].name)
		}
		gateBudget(t, "recorded "+col.Governor, col.MeanErr, col.MaxErr)
		if col.Speedup < rep.Budget["min_speedup"] || col.Speedup < 5 {
			t.Errorf("%s: recorded campaign speedup %.2fx below the 5x budget", col.Governor, col.Speedup)
		}
		if col.Cells != rep.Pages*len(rep.CoRuns) || len(col.PerCell) != col.Cells {
			t.Errorf("%s: cell accounting inconsistent: cells=%d pages=%d coruns=%d per_cell=%d",
				col.Governor, col.Cells, rep.Pages, len(rep.CoRuns), len(col.PerCell))
		}
		if len(col.Sweep) != len(sweepIntervals) {
			t.Errorf("%s: %d sweep points recorded, want %d", col.Governor, len(col.Sweep), len(sweepIntervals))
		}
	}
}
