package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dora/internal/core"
)

// TestRunRefusals covers the exits other than a successful run: help
// (0), flag or configuration errors (2), among them -from-obs combined
// with a flag that only shapes the campaign it skips, and a requested
// profile that cannot be written (1).
func TestRunRefusals(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"help", []string{"-h"}, 0, []string{"-fast", "-seed", "-fidelity", "-from-obs", "-obs", "-out", "-workers", "-runcache", "-log-level"}},
		{"bad flag", []string{"-no-such-flag"}, 2, []string{"flag provided but not defined: -no-such-flag"}},
		{"bad workers", []string{"-workers", "-1"}, 2, []string{"doratrain: ", "-1"}},
		{"bad fidelity", []string{"-fidelity", "bogus"}, 2, []string{"doratrain: ", "bogus"}},
		{"bad log level", []string{"-log-level", "loud"}, 2, []string{"doratrain: ", "loud"}},
		{"from-obs with fast", []string{"-from-obs", "obs.json", "-fast"}, 2, []string{"doratrain: -fast cannot be used with -from-obs"}},
		{"from-obs with fidelity", []string{"-fidelity", "sampled", "-from-obs", "obs.json"}, 2, []string{"doratrain: -fidelity cannot be used with -from-obs"}},
		{"from-obs with obs", []string{"-from-obs", "obs.json", "-obs", "out.json"}, 2, []string{"doratrain: -obs cannot be used with -from-obs"}},
		{"from-obs with all three", []string{"-from-obs", "obs.json", "-obs", "out.json", "-fast", "-fidelity", "exact"}, 2, []string{"doratrain: -fast, -fidelity, -obs cannot be used with -from-obs"}},
		{"lost profiles", []string{"-from-obs", filepath.Join("testdata", "observations.json"), "-out", os.DevNull, "-workers", "1", "-cpuprofile", "/dev/full", "-memprofile", "/dev/full"}, 1, []string{"doratrain: profiling: write cpu profile", "write heap profile"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if slices.Contains(tc.args, "/dev/full") {
				if _, err := os.Stat("/dev/full"); err != nil {
					t.Skip("no /dev/full on this system")
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// TestRunFromObs fits the committed 48-cell campaign (3 pages x 2
// intensities x 8 frequencies) and checks the run exits 0, reports the
// accuracy table, logs through the injected stderr and writes models
// that decode and validate. The fixture is train.SaveObservations of
// the campaign over internal/train's smallCfg grid (seed 100); it is
// committed because measuring it takes about 10 s, and must be
// regenerated whenever train.ObservationFileVersion changes.
func TestRunFromObs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "models.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-from-obs", filepath.Join("testdata", "observations.json"), "-out", out, "-workers", "1"}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr.String())
	}
	for _, want := range []string{"fitting from saved campaign", "Model accuracy (training set)", "models written to " + out} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "models fitted") {
		t.Errorf("log line %q did not reach the injected stderr:\n%s", "models fitted", stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var m core.Models
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunFromObsMissingFile is a run failure, not a flag error.
func TestRunFromObsMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-from-obs", filepath.Join(t.TempDir(), "none.json"), "-log-level", "off"}
	if code := run(context.Background(), args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "doratrain: ") {
		t.Errorf("stderr lacks the command prefix:\n%s", stderr.String())
	}
}
