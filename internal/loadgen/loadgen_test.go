package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dora/internal/runcache"
	"dora/internal/serve"
)

// startDaemon runs an in-process dorad behind httptest, with a real
// (temp-file) run cache so RepeatFrac can actually produce "cache"
// sources across connections. httptest's server supports hijacking,
// so the stream transport works against it too.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	cache, err := runcache.Open(filepath.Join(t.TempDir(), "cache.json"))
	if err != nil {
		t.Fatalf("runcache.Open: %v", err)
	}
	s := serve.NewServer(serve.Config{Cache: cache})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.BeginDrain()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return ts
}

func TestClosedLoopAgainstDaemonBothTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real simulations")
	}
	ts := startDaemon(t)
	cfg := Config{
		BaseURL:      ts.URL,
		Transport:    TransportBoth,
		Duration:     1200 * time.Millisecond,
		Concurrency:  3,
		CampaignFrac: 0.25,
		RepeatFrac:   0.5,
		Pages:        []string{"Alipay"},
		Governors:    []string{"interactive"},
		Seed:         7,
	}

	// The mixer sequence is deterministic for a given seed (Run and a
	// probe instance generate identical specs), so pre-simulate the
	// run's first /v1/load body: repeats of it then hit the warm cache
	// even when the race detector makes fresh simulations slow.
	probeCfg := cfg
	probe := newMixer(&probeCfg)
	var firstLoad spec
	found := false
	for i := 0; i < 16; i++ {
		if sp := probe.next(); !sp.campaign {
			firstLoad = sp
			found = true
			break
		}
	}
	if !found {
		t.Fatal("mixer produced no load request in 16 draws at CampaignFrac=0.25")
	}
	path, payload := firstLoad.jsonBody(&probeCfg)
	warm, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("warm-up POST: %v", err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	if warm.StatusCode != 200 {
		t.Fatalf("warm-up POST status = %d", warm.StatusCode)
	}

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep.PR = 8 // Run leaves identity to the caller
	if err := rep.Validate(); err != nil {
		t.Fatalf("report does not validate: %v", err)
	}
	if rep.Mode != "closed" {
		t.Fatalf("mode = %q, want closed", rep.Mode)
	}
	if rep.Comparison == nil {
		t.Fatal("both-transport run produced no comparison section")
	}
	for _, key := range []string{TransportJSON, TransportStream} {
		tr := rep.Transports[key]
		if tr == nil {
			t.Fatalf("transports[%q] missing", key)
		}
		if tr.Requests < 3 {
			t.Fatalf("[%s] requests = %d, want at least one per worker", key, tr.Requests)
		}
		if tr.Errors != 0 {
			t.Fatalf("[%s] errors = %d, want 0 (status %v)", key, tr.Errors, tr.Status)
		}
		if tr.Status["2xx"] != tr.Requests {
			t.Fatalf("[%s] status = %v, want all %d requests 2xx", key, tr.Status, tr.Requests)
		}
		// Satellite-1 invariant: every 2xx response is classified, so
		// sources sum to the 2xx count (campaigns included).
		var total uint64
		for _, n := range tr.Sources {
			total += n
		}
		if total != tr.Status["2xx"] {
			t.Fatalf("[%s] sources %v sum to %d, want %d (every 2xx classified)", key, tr.Sources, total, tr.Status["2xx"])
		}
		// With a warm cache and 50% repeats of a single page/governor
		// mix, at least one request must have been answered without a
		// fresh simulation.
		if tr.Sources["dedup"]+tr.Sources["cache"] == 0 {
			t.Fatalf("[%s] sources = %v, want some dedup/cache traffic at RepeatFrac=0.5", key, tr.Sources)
		}
		if tr.Latency.P50Ms <= 0 || tr.Latency.MaxMs < tr.Latency.P50Ms {
			t.Fatalf("[%s] latency summary implausible: %+v", key, tr.Latency)
		}
	}
}

func TestOpenLoopPacesArrivals(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real simulations")
	}
	ts := startDaemon(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Duration:    1200 * time.Millisecond,
		Concurrency: 4,
		QPS:         20,
		RepeatFrac:  0.9,
		Seed:        11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Mode != "open" {
		t.Fatalf("mode = %q, want open", rep.Mode)
	}
	tr := rep.Transports[TransportJSON]
	if tr == nil {
		t.Fatal("default transport should be json")
	}
	// At 20 QPS for ~1.2 s the generator schedules ~24 arrivals; a
	// run that completed more than that is not paced at all. Missed
	// ticks account for arrivals the target could not absorb.
	if limit := uint64(30); tr.Requests > limit {
		t.Fatalf("requests = %d, want <= %d in a paced run", tr.Requests, limit)
	}
	if tr.Requests == 0 {
		t.Fatal("no requests completed")
	}
}

// renderAll draws n specs and renders each as its JSON body, the
// transport-neutral sequence both transports replay.
func renderAll(cfg Config, n int) []struct {
	path    string
	payload string
} {
	m := newMixer(&cfg)
	out := make([]struct {
		path    string
		payload string
	}, n)
	for i := range out {
		sp := m.next()
		p, b := sp.jsonBody(&cfg)
		out[i].path, out[i].payload = p, string(b)
	}
	return out
}

func TestMixerDeterministicSequence(t *testing.T) {
	cfg := Config{
		Pages:        []string{"Alipay", "Amazon"},
		Governors:    []string{"interactive", "ondemand"},
		CampaignFrac: 0.3,
		RepeatFrac:   0.4,
		Seed:         42,
	}
	a, b := renderAll(cfg, 50), renderAll(cfg, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged between identically-seeded runs:\n%s %s\n%s %s",
				i, a[i].path, a[i].payload, b[i].path, b[i].payload)
		}
	}
	var campaigns, repeats int
	seen := map[string]bool{}
	for _, r := range a {
		if r.path == "/v1/campaign" {
			campaigns++
		}
		if seen[r.payload] {
			repeats++
		}
		seen[r.payload] = true
	}
	if campaigns == 0 {
		t.Fatal("mix produced no campaigns at CampaignFrac=0.3")
	}
	if repeats == 0 {
		t.Fatal("mix produced no repeats at RepeatFrac=0.4")
	}
}

// TestMixerFidelityFrac: at FidelityFrac=1 every fresh body carries
// fidelity "sampled"; at the 0 default none do.
func TestMixerFidelityFrac(t *testing.T) {
	gen := func(frac float64) []struct {
		path    string
		payload string
	} {
		return renderAll(Config{
			Pages:        []string{"Alipay"},
			Governors:    []string{"interactive"},
			CampaignFrac: 0.3,
			FidelityFrac: frac,
			Seed:         7,
		}, 20)
	}
	for _, r := range gen(1) {
		if !strings.Contains(r.payload, `"fidelity":"sampled"`) {
			t.Fatalf("FidelityFrac=1 body lacks sampled fidelity: %s %s", r.path, r.payload)
		}
	}
	for _, r := range gen(0) {
		if strings.Contains(r.payload, "fidelity") {
			t.Fatalf("FidelityFrac=0 body carries fidelity: %s %s", r.path, r.payload)
		}
	}
}

func TestRunRequiresBaseURL(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("Run with empty BaseURL succeeded, want error")
	}
}

func TestRunRejectsUnknownTransport(t *testing.T) {
	_, err := Run(context.Background(), Config{BaseURL: "http://x", Transport: "carrier-pigeon"})
	if err == nil || !strings.Contains(err.Error(), "transport") {
		t.Fatalf("unknown transport not rejected: %v", err)
	}
}

func TestRunAgainstDeadTarget(t *testing.T) {
	_, err := Run(context.Background(), Config{
		BaseURL:     "http://127.0.0.1:1", // nothing listens on port 1
		Duration:    200 * time.Millisecond,
		Concurrency: 1,
	})
	if err != nil {
		// Connection-refused requests still complete (as
		// network_error) — but if the platform surfaces them slowly
		// enough that none land in the window, the empty-run error is
		// also acceptable.
		if !strings.Contains(err.Error(), "no json requests completed") {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
}

// TestStreamDeadTargetFailsFast: the stream transport dials at run
// start, so a dead target is an immediate dial error instead of a
// window of network_errors.
func TestStreamDeadTargetFailsFast(t *testing.T) {
	_, err := Run(context.Background(), Config{
		BaseURL:     "http://127.0.0.1:1",
		Transport:   TransportStream,
		Duration:    200 * time.Millisecond,
		Concurrency: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "dial stream transport") {
		t.Fatalf("dead stream target error = %v, want dial failure", err)
	}
}

func goodReport() Report {
	lat := LatencySummary{P50Ms: 1, P90Ms: 2, P95Ms: 3, P99Ms: 4, MeanMs: 1.5, MaxMs: 9}
	mk := func(name string) *TransportReport {
		return &TransportReport{
			Transport: name, DurationS: 5, Requests: 100,
			ThroughputRPS: 20, Latency: lat,
			Status:    map[string]uint64{"2xx": 100},
			Sources:   map[string]uint64{"sim": 55, "dedup": 25, "cache": 15, "none": 5},
			DedupRate: 0.25, CacheHitRate: 0.15,
		}
	}
	return Report{
		Schema: Schema, PR: 8, Date: "2026-08-09T00:00:00Z",
		Go: "go1.24", Target: "http://x", Mode: "closed",
		Concurrency: 4, SourcesNote: SourcesNote,
		Transports: map[string]*TransportReport{
			TransportJSON:   mk(TransportJSON),
			TransportStream: mk(TransportStream),
		},
		Comparison: &Comparison{ThroughputGain: 2.5, P50Speedup: 3, P99Speedup: 1.2},
	}
}

func TestValidateCatchesDrift(t *testing.T) {
	good := goodReport()
	if err := good.Validate(); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"wrong schema", func(r *Report) { r.Schema = "dora-bench-serve/v1" }, "schema"},
		{"missing pr", func(r *Report) { r.PR = 0 }, "pr"},
		{"bad date", func(r *Report) { r.Date = "yesterday" }, "RFC3339"},
		{"bad mode", func(r *Report) { r.Mode = "sideways" }, "mode"},
		{"drifted note", func(r *Report) { r.SourcesNote = "whatever" }, "sources_note"},
		{"no transports", func(r *Report) { r.Transports = nil; r.Comparison = nil }, "transports"},
		{"unknown transport", func(r *Report) { r.Transports["fax"] = r.Transports[TransportJSON] }, "transport"},
		{"zero requests", func(r *Report) {
			tr := r.Transports[TransportJSON]
			tr.Requests = 0
			tr.Status = map[string]uint64{}
			tr.Sources = map[string]uint64{}
		}, "requests"},
		{"inverted percentiles", func(r *Report) { r.Transports[TransportStream].Latency.P99Ms = 0.5 }, "monotone"},
		{"status drift", func(r *Report) { r.Transports[TransportJSON].Status["2xx"] = 99 }, "sum"},
		{"unknown status class", func(r *Report) { r.Transports[TransportJSON].Status["6xx"] = 0 }, "status class"},
		{"unknown source", func(r *Report) { r.Transports[TransportJSON].Sources["oracle"] = 1 }, "source"},
		{"sources below 2xx", func(r *Report) { r.Transports[TransportJSON].Sources["sim"] = 1 }, "sources sum"},
		{"rate out of range", func(r *Report) { r.Transports[TransportStream].DedupRate = 1.5 }, "dedup_rate"},
		{"lone first-result", func(r *Report) {
			l := r.Transports[TransportStream].Latency
			r.Transports[TransportStream].CampaignFirstResult = &l
		}, "together"},
		{"missing comparison", func(r *Report) { r.Comparison = nil }, "comparison"},
		{"stray comparison", func(r *Report) { delete(r.Transports, TransportStream) }, "comparison"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// goodReport() builds a fresh deep value per case, so
			// mutations cannot leak between subtests.
			r := goodReport()
			tc.mutate(&r)
			err := r.Validate()
			if err == nil {
				t.Fatalf("mutation %q passed validation", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateJSONRejectsUnknownFields(t *testing.T) {
	data, _ := json.Marshal(map[string]any{"schema": Schema, "surprise": true})
	if err := ValidateJSON(data); err == nil || !strings.Contains(err.Error(), "surprise") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

// TestReportRoundTrip: a generated-shape report survives
// marshal → ValidateJSON, proving the generator and the validator
// agree on field names.
func TestReportRoundTrip(t *testing.T) {
	r := goodReport()
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := ValidateJSON(data); err != nil {
		t.Fatalf("round-tripped report rejected: %v", err)
	}
}
