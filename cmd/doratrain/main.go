// Command doratrain runs DORA's offline training pipeline on the
// simulated device — the reproduction of the paper's Section IV-C
// methodology — and writes the fitted models to a JSON file usable by
// dorasim and dorarepro.
//
// Usage:
//
//	doratrain [-fast] [-seed N] [-out models.json]
//	doratrain -from-obs obs.json [-seed N] [-out models.json]
//
// Exit status: 0 on success, 2 for bad flags or configuration, 1 when
// training or writing its outputs fails.
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
	"strings"

	"dora"
	"dora/internal/obslog"
	"dora/internal/pool"
	"dora/internal/profiling"
	"dora/internal/stats"
	"dora/internal/tablefmt"
	"dora/internal/train"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is one doratrain invocation: parse args, run the campaign (or
// load a saved one) and both fits, print the accuracy report and write
// the models. It returns the process exit status: 0 on success, 2 for
// bad flags or configuration, 1 when training, writing its outputs or
// writing a requested profile fails.
func run(_ context.Context, args []string, stdout, stderr io.Writer) (code int) {
	logf := log.New(stderr, "doratrain: ", 0)
	fs := flag.NewFlagSet("doratrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fast := fs.Bool("fast", false, "reduced campaign grid (quicker, lower fidelity)")
	seed := fs.Int64("seed", 1, "campaign random seed")
	fidelityFlag := fs.String("fidelity", "exact", "campaign simulation fidelity: exact|sampled (sampled fast-forwards phase-stable slices)")
	out := fs.String("out", "models.json", "output path for the trained models")
	obsOut := fs.String("obs", "", "also save the raw campaign observations to this JSON file")
	obsIn := fs.String("from-obs", "", "skip the campaign and fit from a saved observations file")
	workers := fs.Int("workers", 0, "campaign worker pool size (0 = one per CPU or $DORA_WORKERS, 1 = serial)")
	cachePath := fs.String("runcache", "", "persistent run cache file; warm caches skip already-measured cells")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	logFlags := obslog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger, logCloser, err := logFlags.Open(stderr, "doratrain")
	if err != nil {
		logf.Print(err)
		return 2
	}
	defer logCloser.Close()

	nworkers, err := pool.ResolveWorkers(*workers)
	if err != nil {
		logf.Print(err)
		return 2
	}
	fid, err := dora.ParseFidelity(*fidelityFlag)
	if err != nil {
		logf.Print(err)
		return 2
	}
	if *obsIn != "" {
		// These flags only shape the campaign -from-obs skips.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "fast" || f.Name == "fidelity" || f.Name == "obs" {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			logf.Printf("%s cannot be used with -from-obs, which fits a saved campaign instead of running one", strings.Join(ignored, ", "))
			return 2
		}
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

	opts := train.Options{Device: dora.DefaultDevice(), Seed: *seed, Fast: *fast,
		Workers: nworkers, Fidelity: fid}
	if *cachePath != "" {
		opts.Cache, err = dora.OpenRunCache(*cachePath)
		if err != nil {
			logf.Print(err)
			return 2
		}
		fmt.Fprintf(stdout, "run cache %s: %d entries\n", *cachePath, opts.Cache.Len())
	}

	var trained train.Trained
	if *obsIn != "" {
		fmt.Fprintf(stdout, "fitting from saved campaign %s...\n", *obsIn)
		obs, err := train.LoadObservations(*obsIn)
		if err != nil {
			logf.Print(err)
			return 1
		}
		trained, err = train.FitObservations(opts, obs)
		if err != nil {
			logf.Print(err)
			return 1
		}
	} else {
		fmt.Fprintln(stdout, "running measurement campaign (this simulates hundreds of page loads)...")
		logger.Info().Bool("fast", *fast).Int64("seed", *seed).Int("workers", nworkers).
			Str("fidelity", fid.String()).Msg("measurement campaign starting")
		trained, err = train.Run(opts)
		if err != nil {
			logf.Print(err)
			return 1
		}
		if *obsOut != "" {
			if err := train.SaveObservations(*obsOut, trained.Observations); err != nil {
				logf.Print(err)
				return 1
			}
			fmt.Fprintf(stdout, "campaign observations written to %s\n", *obsOut)
		}
	}

	if cache := opts.Cache; cache != nil {
		if err := cache.Save(); err != nil {
			logf.Print(err)
			return 1
		}
		hits, misses, stores := cache.Stats()
		fmt.Fprintf(stdout, "run cache %s: %d hits, %d misses, %d new entries (now %d total)\n",
			cache.Path(), hits, misses, stores, cache.Len())
	}

	report := trained.Report
	logger.Info().
		Int("observations", report.Observations).
		Float("time_mape_pct", report.TimeMetrics.MAPE*100).
		Float("power_mape_pct", report.PowerMetrics.MAPE*100).
		Msg("models fitted")

	t := tablefmt.New("Model accuracy (training set)", "model", "mean_error_pct", "max_error_pct", "n")
	t.AddRow("load time (interaction surface)", report.TimeMetrics.MAPE*100, report.TimeMetrics.MaxAPE*100, report.Observations)
	t.AddRow("power (linear + Eq.5 static)", report.PowerMetrics.MAPE*100, report.PowerMetrics.MaxAPE*100, report.Observations)
	fmt.Fprintln(stdout, t.String())

	cdf := stats.NewCDF(report.TimeErrors)
	fmt.Fprintf(stdout, "load-time error CDF: %.0f%% of predictions under 5%% error, %.0f%% under 10%%\n",
		cdf.At(0.05)*100, cdf.At(0.10)*100)
	fmt.Fprintf(stdout, "paper reference: 2.5%% mean load-time error, 4.0%% mean power error\n\n")

	data, err := json.MarshalIndent(trained.Models, "", "  ")
	if err != nil {
		logf.Print(err)
		return 1
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		logf.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "models written to %s\n", *out)
	return 0
}
