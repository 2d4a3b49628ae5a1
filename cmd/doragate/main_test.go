package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dora/internal/cluster"
	"dora/internal/serve"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
)

// TestRunRefusals covers the exits that happen before doragate
// listens: help, flag errors and configurations the gateway refuses.
func TestRunRefusals(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}{
		{"help", []string{"-h"}, 0, []string{"-workers", "-transport", `(default "stream")`, "-forward-timeout"}},
		{"bad flag", []string{"-no-such-flag"}, 2, []string{"flag provided but not defined: -no-such-flag"}},
		{"no workers", nil, 2, []string{"no workers"}},
		{"unknown transport", []string{"-workers", "http://127.0.0.1:1", "-transport", "carrier-pigeon"}, 2, []string{`unknown transport "carrier-pigeon"`}},
		{"https worker under the stream", []string{"-workers", "https://127.0.0.1:1"}, 2, []string{"https://127.0.0.1:1", "-transport json"}},
		{"bad fidelity", []string{"-workers", "http://127.0.0.1:1", "-fidelity", "vague"}, 2, []string{"vague"}},
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

// TestRunServesAndStops runs doragate on 127.0.0.1:0 in front of an
// in-process dorad: after a probe it reports healthy and forwards a
// load over the default stream transport, and it exits 0 once its
// context is cancelled.
func TestRunServesAndStops(t *testing.T) {
	srv := serve.NewServer(serve.Config{Metrics: telemetry.NewRegistry()})
	worker := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		worker.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Errorf("drain worker: %v", err)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", worker.URL,
			"-probe-interval", "50ms", "-log-level", "off"}, &stdout, &stderr)
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

	// The first probe adopts the worker's device fingerprint.
	want := sim.ConfigFingerprint(soc.NexusFive())
	for {
		var snap struct {
			Fingerprint string `json:"fingerprint"`
			Transport   string `json:"transport"`
		}
		if err := json.Unmarshal(get(t, base+"/v1/cluster", http.StatusOK), &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Transport != cluster.TransportStream {
			t.Fatalf("transport = %q, want the stream default", snap.Transport)
		}
		if snap.Fingerprint == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fingerprint = %q after waiting for a probe, want %q", snap.Fingerprint, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	get(t, base+"/healthz", http.StatusOK)

	resp, err := http.Post(base+"/v1/load", "application/json", strings.NewReader(`{"page":"Alipay","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cluster.AttemptsHeader) != "1" {
		t.Fatalf("load = %d after %s attempts: %s", resp.StatusCode, resp.Header.Get(cluster.AttemptsHeader), body)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after cancel, want 0: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if !strings.Contains(stdout.String(), "doragate: stopped") {
		t.Fatalf("stdout = %q, want the stopped line", stdout.String())
	}
}

// get fetches url and fails the test unless it answers status.
func get(t *testing.T, url string, status int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != status {
		t.Fatalf("GET %s = %d %s, want %d", url, resp.StatusCode, body, status)
	}
	return body
}
