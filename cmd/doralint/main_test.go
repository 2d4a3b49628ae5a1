package main

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"dora/internal/lint"
)

// fixtureDir is the lint fixture module, which carries deliberate
// findings of every rule.
const fixtureDir = "../../internal/lint/testdata/src"

// TestRun drives doralint's run seam: help (0), flag and rule refusals
// (2), and a real lint of the fixture module, which has findings (1).
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		wantStdout []string
		wantStderr []string
	}{
		{"help", []string{"-h"}, 0, nil, []string{"usage: doralint", "-json", "-dir", "-rule", "-pkg", "-log-level"}},
		{"bad flag", []string{"-no-such-flag"}, 2, nil, []string{"flag provided but not defined: -no-such-flag"}},
		{"retired rule", []string{"-rule", "hotpath"}, 2, nil,
			[]string{"doralint: unknown rule(s) hotpath", "known: maporder, chanclose, goroleak, locksafe, detflow"}},
		{"fixture findings", []string{"-log-level", "off", "-dir", fixtureDir}, 1,
			[]string{"soc/soc.go:", "[detflow]", "[maporder]", "[chanclose]", "[goroleak]", "[locksafe]", "[allow]"},
			[]string{"finding(s)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			for _, want := range tc.wantStdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.wantStderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// TestRunJSON checks -json writes a parseable lint.Report listing
// every rule of the suite, with the fixture's findings counted.
func TestRunJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-json", "-log-level", "off", "-dir", fixtureDir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	var rep lint.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a lint.Report: %v\n%s", err, stdout.String())
	}
	if rep.Tool != "doralint" || rep.Module != "fixture" || rep.Total == 0 {
		t.Errorf("report header tool=%q module=%q total=%d, want doralint, fixture, > 0", rep.Tool, rep.Module, rep.Total)
	}
	var rules []string
	for _, r := range rep.Rules {
		rules = append(rules, r.Rule)
	}
	want := lint.AllRuleNames()
	slices.Sort(want)
	if !slices.Equal(rules, want) {
		t.Errorf("report rules %v, want %v", rules, want)
	}
}
