package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunRefusals covers the exits that happen before dorasim loads a
// page: help (0) and flag or configuration errors (2).
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
// checks it exits 0 and prints the metric table, the frequency
// residency and the sparklines.
func TestRunLoadsPage(t *testing.T) {
	for _, fid := range []string{"exact", "sampled"} {
		t.Run(fid, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-page", "Alipay", "-fidelity", fid, "-log-level", "off"}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr.String())
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
