// Command dorasim runs a single measured page load on the simulated
// device under a chosen frequency governor.
//
// Usage:
//
//	dorasim -page Reddit -corun backprop -governor interactive
//	dorasim -page MSN -corun bfs -governor DORA -models models.json
//	dorasim -page ESPN -freq 1497
//	dorasim -page Reddit -corun srad -trace out.json -decisions dec.jsonl -metrics m.prom
//
// Exit status: 0 on success, 2 for bad flags or configuration, 1 when
// the run or writing its outputs fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"dora"
	"dora/internal/asciichart"
	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/obslog"
	"dora/internal/pool"
	"dora/internal/profiling"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/tablefmt"
	"dora/internal/webgen"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is one dorasim invocation: parse args, load the page, write the
// requested artifacts and print the report. It returns the process
// exit status: 0 on success, 2 for bad flags or configuration, 1 when
// the run, writing its outputs or writing a requested profile fails.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	logf := log.New(stderr, "dorasim: ", 0)
	fs := flag.NewFlagSet("dorasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	page := fs.String("page", "Reddit", "web page to load (see -list)")
	coRun := fs.String("corun", "", "co-scheduled kernel (empty = browser alone)")
	govName := fs.String("governor", "interactive", strings.Join(core.GovernorNames(), "|"))
	freq := fs.Int("freq", 0, "pin a fixed frequency in MHz instead of a governor")
	deadline := fs.Duration("deadline", 3*time.Second, "QoS load-time target")
	modelsPath := fs.String("models", "", "trained models JSON (required for DORA/DL/EE)")
	seed := fs.Int64("seed", 1, "simulation seed")
	fidelityFlag := fs.String("fidelity", "exact", "simulation fidelity: exact|sampled (sampled fast-forwards phase-stable slices)")
	trace := fs.String("trace", "", "write a Chrome trace_event JSON file (load into Perfetto / chrome://tracing)")
	traceCSV := fs.String("tracecsv", "", "write a per-millisecond CSV trace (time,freq,power,temp,bus_util) to this file")
	decisions := fs.String("decisions", "", "write the governor decision log (.csv for CSV, anything else for JSONL)")
	metrics := fs.String("metrics", "", "write run metrics (.json for JSON, anything else for Prometheus text)")
	cachePath := fs.String("runcache", "", "persistent run cache file; repeat identical runs are served from it (ignored when trace/decision/metric outputs are requested)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	list := fs.Bool("list", false, "list pages and kernels, then exit")
	logFlags := obslog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger, logCloser, err := logFlags.Open(stderr, "dorasim")
	if err != nil {
		logf.Print(err)
		return 2
	}
	defer logCloser.Close()

	// dorasim runs a single load, but a malformed $DORA_WORKERS is still
	// a configuration error the user should hear about up front, through
	// the same validator every command shares.
	if _, err := pool.ResolveWorkers(0); err != nil {
		logf.Print(err)
		return 2
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		logf.Print(err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			logf.Print(err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *list {
		fmt.Fprintln(stdout, "pages:")
		for _, p := range dora.Pages() {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
		fmt.Fprintln(stdout, "co-run kernels:")
		for _, k := range dora.CoRunners() {
			fmt.Fprintf(stdout, "  %s\n", k)
		}
		return 0
	}

	dev := dora.DefaultDevice()
	gov, interval, models, err := buildGovernor(dev, *govName, *freq, *modelsPath)
	if err != nil {
		logf.Print(err)
		return 2
	}
	fid, err := dora.ParseFidelity(*fidelityFlag)
	if err != nil {
		logf.Print(err)
		return 2
	}
	// An unknown page or kernel is a flag error too, not a failed run.
	if _, err := webgen.ByName(*page); err != nil {
		logf.Print(err)
		return 2
	}
	if *coRun != "" {
		if _, err := corun.ByName(*coRun); err != nil {
			logf.Print(err)
			return 2
		}
	}

	// Trace, decision-log, and metric outputs need a live simulation,
	// so the cache only serves runs when none are requested.
	var cache *runcache.Cache
	var cacheKey string
	if *cachePath != "" {
		cache, err = runcache.Open(*cachePath)
		if err != nil {
			logf.Print(err)
			return 2
		}
		if *trace == "" && *traceCSV == "" && *decisions == "" && *metrics == "" {
			cacheKey = runcache.Key("dorasim-run", sim.ConfigFingerprint(dev),
				*seed, *page, *coRun, *govName, *freq, *deadline, models, fid.String())
		}
	}

	var traceBuf strings.Builder
	opts := dora.LoadOptions{
		Device:           dev,
		Governor:         gov,
		Page:             *page,
		CoRunner:         *coRun,
		Deadline:         *deadline,
		DecisionInterval: interval,
		Seed:             *seed,
		Fidelity:         fid,
	}
	if *trace != "" {
		opts.Tracer = dora.NewTracer()
	}
	if *decisions != "" {
		opts.Decisions = dora.NewDecisionLog()
	}

	// Per-millisecond frequency/temperature history for the sparklines.
	var freqHist, tempHist []float64
	sink := dora.NewSink(dora.SinkOptions{})
	sink.Subscribe(func(s dora.Sample) {
		freqHist = append(freqHist, float64(s.FreqMHz))
		tempHist = append(tempHist, s.SoCTempC)
	})
	if *traceCSV != "" {
		traceBuf.WriteString("time_s,freq_mhz,power_w,soc_temp_c,bus_util\n")
		sink.Subscribe(func(s dora.Sample) {
			fmt.Fprintf(&traceBuf, "%.3f,%d,%.3f,%.2f,%.3f\n",
				s.Now.Seconds(), s.FreqMHz, s.PowerW, s.SoCTempC, s.BusUtil)
		})
	}
	opts.Sink = sink

	logger.Debug().
		Str("page", *page).
		Str("corunner", *coRun).
		Str("governor", gov.Name()).
		Int64("seed", *seed).
		Bool("cacheable", cacheKey != "").
		Msg("starting page load")
	var res dora.Result
	if cacheKey != "" && cache.Get(cacheKey, &res) {
		fmt.Fprintf(stdout, "run served from cache %s (sparklines need a live run)\n", cache.Path())
		logger.Info().Str("cache", cache.Path()).Msg("run served from cache")
	} else {
		res, err = dora.LoadPageContext(ctx, opts)
		if err != nil {
			logger.Error().Err(err).Str("page", *page).Msg("page load failed")
			logf.Print(err)
			return 1
		}
		logger.Info().
			Str("page", res.Page).
			Str("governor", gov.Name()).
			Dur("load_time_ms", res.LoadTime).
			Float("energy_j", res.EnergyJ).
			Bool("deadline_met", res.DeadlineMet).
			Msg("page load complete")
		if cacheKey != "" {
			cache.Put(cacheKey, res)
			if err := cache.Save(); err != nil {
				logf.Print(err)
				return 1
			}
		}
	}
	if *traceCSV != "" {
		if err := os.WriteFile(*traceCSV, []byte(traceBuf.String()), 0o644); err != nil {
			logf.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "csv trace written to %s\n", *traceCSV)
	}
	if *trace != "" {
		if err := writeFileWith(*trace, opts.Tracer.WriteJSON); err != nil {
			logf.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace written to %s (%d events)\n", *trace, opts.Tracer.Len())
	}
	if *decisions != "" {
		w := opts.Decisions.WriteJSONL
		if strings.HasSuffix(*decisions, ".csv") {
			w = opts.Decisions.WriteCSV
		}
		if err := writeFileWith(*decisions, w); err != nil {
			logf.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "decision log written to %s (%d records)\n", *decisions, opts.Decisions.Len())
	}
	if *metrics != "" {
		reg := dora.NewRegistry()
		res.Publish(reg)
		w := reg.WritePrometheus
		if strings.HasSuffix(*metrics, ".json") {
			w = reg.WriteJSON
		}
		if err := writeFileWith(*metrics, w); err != nil {
			logf.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metrics)
	}
	report(stdout, res, gov.Name(), freqHist, tempHist)
	return 0
}

// report prints the run's metric table, its frequency residency and
// the frequency and temperature sparklines.
func report(w io.Writer, res dora.Result, govName string, freqHist, tempHist []float64) {
	t := tablefmt.New(fmt.Sprintf("%s + %s under %s", res.Page, orNone(res.CoRunName), govName),
		"metric", "value")
	t.AddRowStrings("load time", res.LoadTime.String())
	t.AddRowStrings("deadline met", fmt.Sprint(res.DeadlineMet))
	t.AddRowStrings("energy", fmt.Sprintf("%.2f J", res.EnergyJ))
	t.AddRowStrings("avg device power", fmt.Sprintf("%.2f W", res.AvgPowerW))
	t.AddRowStrings("PPW (1/J)", fmt.Sprintf("%.4f", res.PPW))
	t.AddRowStrings("co-run L2 MPKI", fmt.Sprintf("%.2f", res.AvgCoRunMPKI))
	t.AddRowStrings("co-run utilization", fmt.Sprintf("%.2f", res.AvgCoRunUtil))
	t.AddRowStrings("max SoC temp", fmt.Sprintf("%.1f C", res.MaxSoCTempC))
	t.AddRowStrings("frequency switches", fmt.Sprint(res.Switches))
	fmt.Fprintln(w, t.String())

	type resid struct {
		f int
		d time.Duration
	}
	var rs []resid
	for f, d := range res.FreqResidency {
		rs = append(rs, resid{f, d})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].f < rs[j].f })
	rt := tablefmt.New("Frequency residency", "freq_mhz", "time", "share_pct")
	for _, r := range rs {
		rt.AddRowStrings(fmt.Sprint(r.f), r.d.String(),
			fmt.Sprintf("%.1f", 100*float64(r.d)/float64(res.LoadTime)))
	}
	fmt.Fprintln(w, rt.String())

	if spark := asciichart.Sparkline(freqHist, 64); spark != "" {
		lo, hi := minMax(freqHist)
		fmt.Fprintf(w, "freq MHz  %s  [%.0f..%.0f]\n", spark, lo, hi)
	}
	if spark := asciichart.Sparkline(tempHist, 64); spark != "" {
		lo, hi := minMax(tempHist)
		fmt.Fprintf(w, "SoC degC  %s  [%.1f..%.1f]\n", spark, lo, hi)
	}
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// writeFileWith streams an exposition function into a file.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildGovernor resolves -freq or -governor: a pinned OPP, or a name
// from the core governor table, loading -models for the model-based
// ones.
func buildGovernor(dev dora.Device, name string, freq int, modelsPath string) (dora.Governor, time.Duration, *core.Models, error) {
	if freq > 0 {
		return dora.NewFixed(dev, freq), 20 * time.Millisecond, nil, nil
	}
	var models *core.Models
	if core.NeedsModels(name) {
		var err error
		if models, err = loadModels(modelsPath); err != nil {
			return nil, 0, nil, err
		}
	}
	g, interval, err := core.NewGovernor(name, models)
	return g, interval, models, err
}

func loadModels(path string) (*core.Models, error) {
	if path == "" {
		return nil, fmt.Errorf("model-based governors need -models (run doratrain first)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m core.Models
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func orNone(s string) string {
	if s == "" {
		return "no co-runner"
	}
	return s
}
