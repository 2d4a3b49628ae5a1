// Command dorarepro regenerates every table and figure of the DORA
// paper's evaluation section as plain-text tables, using the simulated
// device and the trained models.
//
// Usage:
//
//	dorarepro                # everything, fast training grid
//	dorarepro -full          # full training grid (slower, paper scale)
//	dorarepro -fig 1,3,7     # only selected figures
//	dorarepro -fig headline  # just the summary numbers
//
// Exit status: 0 on success, 2 for bad flags or configuration, 1 when
// training or an exhibit fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"dora"
	"dora/internal/obslog"
	"dora/internal/pool"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is one dorarepro invocation: parse args, train the suite and
// print the selected exhibits. It returns the process exit status: 0
// on success, 2 for bad flags or configuration, 1 when training or an
// exhibit fails.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	logf := log.New(stderr, "dorarepro: ", 0)
	// The figure table comes first so -fig is checked against it before
	// the suite, which the closures read once it is trained, is built.
	var suite *dora.Suite
	type figure struct {
		key string
		run func() (interface{ Table() string }, error)
	}
	figures := []figure{
		{"1", func() (interface{ Table() string }, error) { return suite.Fig1() }},
		{"2", func() (interface{ Table() string }, error) { return suite.Fig2() }},
		{"3", func() (interface{ Table() string }, error) { return suite.Fig3() }},
		{"table3", func() (interface{ Table() string }, error) { return suite.TableIII() }},
		{"5", func() (interface{ Table() string }, error) { return suite.Fig5(), nil }},
		{"6", func() (interface{ Table() string }, error) { return suite.Fig6() }},
		{"7", func() (interface{ Table() string }, error) { return suite.Fig7() }},
		{"8", func() (interface{ Table() string }, error) { return suite.Fig8() }},
		{"9", func() (interface{ Table() string }, error) { return suite.Fig9() }},
		{"10", func() (interface{ Table() string }, error) { return suite.Fig10() }},
		{"11", func() (interface{ Table() string }, error) { return suite.Fig11() }},
		{"headline", func() (interface{ Table() string }, error) { return suite.Headline() }},
		{"overhead", func() (interface{ Table() string }, error) { return suite.Overhead() }},
		{"interval", func() (interface{ Table() string }, error) { return suite.IntervalStudy() }},
		{"offlineopt", func() (interface{ Table() string }, error) { return suite.OfflineOpt() }},
		{"ablation-piecewise", func() (interface{ Table() string }, error) { return suite.PiecewiseAblation() }},
		{"ablation-replacement", func() (interface{ Table() string }, error) { return suite.ReplacementAblation() }},
		{"complexity", func() (interface{ Table() string }, error) { return suite.ComplexitySweep() }},
	}
	keys := make([]string, len(figures))
	for i, f := range figures {
		keys[i] = f.key
	}
	fs := flag.NewFlagSet("dorarepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "use the full paper-scale training campaign")
	seed := fs.Int64("seed", 1, "simulation seed")
	figs := fs.String("fig", "all", "comma-separated list: all or "+strings.Join(keys, ","))
	workers := fs.Int("workers", 0, "measurement worker pool size (0 = one per CPU or $DORA_WORKERS, 1 = serial)")
	cachePath := fs.String("runcache", "", "persistent run cache file; warm caches skip already-simulated runs")
	logFlags := obslog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger, logCloser, err := logFlags.Open(stderr, "dorarepro")
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

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		name := strings.TrimSpace(strings.ToLower(f))
		if name != "all" && !slices.Contains(keys, name) {
			logf.Printf("unknown -fig %q; valid names: all,%s", name, strings.Join(keys, ","))
			return 2
		}
		want[name] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }

	var cache *dora.RunCache
	if *cachePath != "" {
		cache, err = dora.OpenRunCache(*cachePath)
		if err != nil {
			logf.Print(err)
			return 2
		}
		fmt.Fprintf(stdout, "run cache %s: %d entries\n", *cachePath, cache.Len())
	}

	fmt.Fprintln(stdout, "training models (simulated measurement campaign)...")
	logger.Info().Bool("full", *full).Int64("seed", *seed).Int("workers", nworkers).Msg("training campaign starting")
	suite, err = dora.NewSuiteOpts(dora.TrainOptions{
		Device:  dora.DefaultDevice(),
		Seed:    *seed,
		Fast:    !*full,
		Workers: nworkers,
		Cache:   cache,
	})
	if err != nil {
		logf.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "trained: load-time error %.2f%%, power error %.2f%% (paper: 2.5%% / 4.0%%)\n\n",
		suite.TrainReport.TimeMetrics.MAPE*100, suite.TrainReport.PowerMetrics.MAPE*100)

	for _, f := range figures {
		if !sel(f.key) {
			continue
		}
		logger.Debug().Str("figure", f.key).Msg("regenerating figure")
		res, err := f.run()
		if err != nil {
			logger.Error().Str("figure", f.key).Err(err).Msg("figure failed")
			logf.Printf("figure %s: %v", f.key, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Table())
	}

	if cache != nil {
		if err := cache.Save(); err != nil {
			logf.Print(err)
			return 1
		}
		hits, misses, stores := cache.Stats()
		fmt.Fprintf(stdout, "run cache %s: %d hits, %d misses, %d new entries (now %d total)\n",
			cache.Path(), hits, misses, stores, cache.Len())
	}
	return 0
}
