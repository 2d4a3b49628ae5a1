package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dora/internal/runcache"
	"dora/internal/serve"
)

// TestRunRefusals covers the exits that happen before dorad serves:
// help, flag errors and configurations it cannot start with (2), and
// an address it cannot listen on (1).
func TestRunRefusals(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-models.json")
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"help", []string{"-h"}, 0, []string{"-addr", "-models", "-runcache", "-drain-timeout", `(default "exact")`}},
		{"bad flag", []string{"-no-such-flag"}, 2, []string{"flag provided but not defined: -no-such-flag"}},
		{"unreadable models", []string{"-models", missing}, 2, []string{"dorad: ", missing}},
		{"bad fidelity", []string{"-fidelity", "vague"}, 2, []string{"vague"}},
		{"bad workers", []string{"-workers", "-3"}, 2, []string{"dorad: ", "-3"}},
		{"address in use", []string{"-addr", taken.Addr().String(), "-log-level", "off"}, 1, []string{"dorad: ", taken.Addr().String()}},
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

// syncBuffer is a bytes.Buffer safe for run's goroutine to write while
// the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServesAndDrains runs dorad on 127.0.0.1:0 with a run cache:
// it answers /healthz and one load, and once its context is cancelled
// it drains, saves the cache file and exits 0.
func TestRunServesAndDrains(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-runcache", cachePath,
			"-log-level", "off"}, &stdout, &stderr)
	}()

	listening := regexp.MustCompile(`listening on (\S+) `)
	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if m := listening.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case code := <-done:
			t.Fatalf("run exited %d before listening: %s", code, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line: %s", stderr.String())
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/load", "application/json", strings.NewReader(`{"page":"Alipay","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(serve.SourceHeader) != "sim" {
		t.Fatalf("load = %d (source %q): %s", resp.StatusCode, resp.Header.Get(serve.SourceHeader), body)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after cancel, want 0: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr lacks the draining line:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "served 1 requests (1 sims") {
		t.Errorf("stdout lacks the shutdown summary:\n%s", stdout.String())
	}
	saved, err := runcache.Open(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Len() != 1 {
		t.Fatalf("saved run cache holds %d entries, want the one load", saved.Len())
	}
}
