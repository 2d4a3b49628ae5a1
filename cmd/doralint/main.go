// Command doralint runs the repository's static-analysis suite (see
// internal/lint): the per-package rule maporder, the call-graph rules
// (chanclose, goroleak, locksafe, detflow), and validation of
// //doralint:allow suppressions. It is pure standard library and needs
// no network.
//
// Usage:
//
//	doralint [-json] [-dir D] [-rule R[,R...]] [-pkg P[,P...]] [packages]
//
// With no packages (or "./..."), the whole module containing -dir is
// analyzed. Package arguments — positional or via -pkg — select where
// findings are reported by import path or module-relative directory; a
// trailing /... matches subtrees. The module is always loaded and the
// call graph always built in full, so package selection scopes the
// report, never the analysis. -rule runs a subset of the rules, which
// with -pkg makes the interprocedural rules usable as a fast
// pre-commit check (e.g. -rule chanclose,goroleak -pkg internal/serve).
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on
// usage or load errors (parse failures, type errors).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dora/internal/lint"
	"dora/internal/obslog"
	"dora/internal/pool"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is one doralint invocation: parse args, load and lint the
// module, and print the findings or the JSON report. It returns the
// process exit status (see the package doc). A lint run has nothing
// to cancel; the context keeps the shape the other commands' run
// seams share.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("doralint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the machine-readable report (LINT_REPORT.json shape) on stdout")
	dir := fs.String("dir", ".", "directory inside the module to analyze")
	ruleFlag := fs.String("rule", "", "comma-separated subset of rules to run (default: all)")
	pkgFlag := fs.String("pkg", "", "comma-separated package patterns to report on (the whole module is still analyzed)")
	logFlags := obslog.RegisterFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: doralint [-json] [-dir D] [-rule R[,R...]] [-pkg P[,P...]] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "doralint:", err)
		return 2
	}

	logger, logCloser, err := logFlags.Open(stderr, "doralint")
	if err != nil {
		return fail(err)
	}
	defer logCloser.Close()

	// Shared workers validation: doralint has no fan-out of its own, but
	// a malformed $DORA_WORKERS should fail loudly here too instead of
	// silently falling back in whatever command runs next.
	if _, err := pool.ResolveWorkers(0); err != nil {
		return fail(err)
	}

	analyzers, err := selectRules(*ruleFlag)
	if err != nil {
		return fail(err)
	}

	mod, err := lint.LoadModule(*dir)
	if err != nil {
		logger.Error().Err(err).Str("dir", *dir).Msg("module load failed")
		return fail(err)
	}
	patterns := fs.Args()
	for _, p := range strings.Split(*pkgFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			patterns = append(patterns, p)
		}
	}
	if err := mod.Select(patterns); err != nil {
		return fail(err)
	}

	logger.Debug().Int("packages", len(mod.Pkgs)).Int("analyzers", len(analyzers)).Msg("analysis starting")
	diags := lint.Run(mod, analyzers)
	logger.Info().Int("packages", len(mod.Pkgs)).Int("findings", len(diags)).Msg("analysis complete")

	if *jsonOut {
		b, err := lint.NewReport(mod, analyzers, diags).JSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(b)
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "doralint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// selectRules resolves the -rule flag to a subset of the registered
// analyzers, preserving suite order. An empty flag means all.
func selectRules(ruleFlag string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if ruleFlag == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, r := range strings.Split(ruleFlag, ",") {
		if r = strings.TrimSpace(r); r != "" {
			want[r] = true
		}
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown, known []string
		for r := range want {
			unknown = append(unknown, r)
		}
		sort.Strings(unknown)
		for _, a := range all {
			known = append(known, a.Name)
		}
		return nil, fmt.Errorf("unknown rule(s) %s (known: %s; the \"allow\" meta-rule always runs)",
			strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	if len(out) == 0 {
		return all, nil
	}
	return out, nil
}
