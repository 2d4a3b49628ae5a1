package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunRefusals covers the exits that happen before dorarepro trains
// its suite: help (0) and flag or configuration errors (2), among them
// a -fig name no exhibit has. A real run builds the Fast suite first,
// which takes minutes, so none runs here.
func TestRunRefusals(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"help", []string{"-h"}, 0, []string{"-full", "-seed", "-fig", "-workers", "-runcache", "-log-level"}},
		{"bad flag", []string{"-no-such-flag"}, 2, []string{"flag provided but not defined: -no-such-flag"}},
		{"bad workers", []string{"-workers", "-1"}, 2, []string{"dorarepro: ", "-1"}},
		{"bad log level", []string{"-log-level", "loud"}, 2, []string{"dorarepro: ", "loud"}},
		{"unknown figure", []string{"-fig", "headlin"}, 2, []string{"dorarepro: ", `unknown -fig "headlin"`, "valid names: all,1,2,3,table3,", "headline"}},
		{"unknown figure among known", []string{"-fig", "1, 7,fig9"}, 2, []string{`unknown -fig "fig9"`, "complexity"}},
		{"empty figure list", []string{"-fig", ""}, 2, []string{`unknown -fig ""`}},
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
