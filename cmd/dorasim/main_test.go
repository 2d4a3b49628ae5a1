package main

import (
	"bytes"
	"context"
	"os"
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
