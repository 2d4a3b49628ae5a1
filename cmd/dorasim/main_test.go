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
)

// TestRunRefusals covers the exits that happen without a page load:
// help (0), flag or configuration errors (2), and a requested profile
// that cannot be written (1).
func TestRunRefusals(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"help", []string{"-h"}, 0, []string{"-page", "-corun", "-governor", "-fidelity", "-runcache", `(default "exact")`}},
		{"bad flag", []string{"-no-such-flag"}, 2, []string{"flag provided but not defined: -no-such-flag"}},
		{"bad fidelity", []string{"-fidelity", "vague"}, 2, []string{"dorasim: ", "vague"}},
		{"unknown governor", []string{"-governor", "nope"}, 2, []string{"dorasim: ", `"nope"`, "interactive"}},
		{"unknown page", []string{"-page", "NoSuchPage"}, 2, []string{"dorasim: ", "NoSuchPage"}},
		{"unknown co-runner", []string{"-corun", "nokernel"}, 2, []string{"dorasim: ", "nokernel"}},
		{"lost profiles", []string{"-list", "-cpuprofile", "/dev/full", "-memprofile", "/dev/full"}, 1, []string{"dorasim: profiling: write cpu profile", "write heap profile"}},
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

// TestRunLoadsPage runs one short page load at each fidelity and
// checks it exits 0, prints the metric table, the frequency residency
// and the sparklines, and logs through the injected stderr.
func TestRunLoadsPage(t *testing.T) {
	for _, fid := range []string{"exact", "sampled"} {
		t.Run(fid, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-page", "Alipay", "-fidelity", fid}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "page load complete") {
				t.Errorf("log line %q did not reach the injected stderr:\n%s", "page load complete", stderr.String())
			}
			for _, want := range []string{
				"Alipay + no co-runner under interactive",
				"load time", "deadline met", "energy", "frequency switches",
				"Frequency residency", "freq MHz", "SoC degC",
			} {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

// TestRunWritesMetrics reads the -metrics JSON of one load: a sampled
// run publishes one page load, its decisions and the four sampled
// slice counters; an exact run publishes no sampled counter.
func TestRunWritesMetrics(t *testing.T) {
	sampledNames := []string{
		"dora_sampled_no_rates_slices_total",
		"dora_sampled_unstable_slices_total",
		"dora_sampled_cadence_slices_total",
		"dora_sampled_extrapolated_slices_total",
	}
	for _, fid := range []string{"sampled", "exact"} {
		t.Run(fid, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.json")
			var stdout, stderr bytes.Buffer
			args := []string{"-page", "Alipay", "-fidelity", fid, "-metrics", path, "-log-level", "off"}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr.String())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var metrics []struct {
				Name  string   `json:"name"`
				Value *float64 `json:"value"`
			}
			if err := json.Unmarshal(data, &metrics); err != nil {
				t.Fatalf("metrics file is not a JSON metric list: %v\n%s", err, data)
			}
			values := map[string]float64{}
			for _, m := range metrics {
				if m.Value != nil {
					values[m.Name] = *m.Value
				}
			}
			if got := values["dora_page_loads_total"]; got != 1 {
				t.Errorf("dora_page_loads_total = %v, want 1", got)
			}
			if got := values["dora_governor_decisions_total"]; got <= 0 {
				t.Errorf("dora_governor_decisions_total = %v, want > 0", got)
			}
			var slices float64
			for _, name := range sampledNames {
				v, ok := values[name]
				if ok != (fid == "sampled") {
					t.Errorf("%s present = %v in a %s run", name, ok, fid)
				}
				slices += v
			}
			if fid == "sampled" && slices == 0 {
				t.Error("a sampled run published no slice")
			}
		})
	}
}
