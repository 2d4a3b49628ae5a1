package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dora/internal/obslog"
)

// syncBuffer is a race-safe log destination for e2e assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// accessLine returns the first access-log line containing needle.
func (b *syncBuffer) accessLine(needle string) string {
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "module=access") && strings.Contains(line, needle) {
			return line
		}
	}
	return ""
}

var ridPattern = regexp.MustCompile(`^[0-9a-f]{8}-[0-9]+$`)

// TestObservabilityEndToEnd is the acceptance-criteria e2e: one real
// request over httptest must yield (1) a generated X-Dora-Request-Id,
// (2) an access-log line carrying that ID, the source, the outcome,
// and the timing fields, and (3) per-endpoint histogram/status counts
// observable both in-process and through /metrics.
func TestObservabilityEndToEnd(t *testing.T) {
	logBuf := &syncBuffer{}
	s, ts := newTestServer(t, Config{Log: obslog.New(logBuf, obslog.Options{Level: obslog.LevelDebug})}, nil)

	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":41}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	rid := resp.Header.Get(RequestIDHeader)
	if !ridPattern.MatchString(rid) {
		t.Fatalf("generated request ID %q does not match %v", rid, ridPattern)
	}
	if src := resp.Header.Get(SourceHeader); src != "sim" {
		t.Fatalf("X-Dora-Source = %q, want sim", src)
	}

	line := logBuf.accessLine("rid=" + rid)
	if line == "" {
		t.Fatalf("no access-log line for rid=%s in:\n%s", rid, logBuf.String())
	}
	for _, want := range []string{
		"level=info", "method=POST", "path=/v1/load", "endpoint=load",
		"status=200", "outcome=ok", "source=sim", "queue_wait_ms=",
		"sim_ms=", "total_ms=", "bytes=", "msg=request",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access line missing %q: %s", want, line)
		}
	}
	// The line's sim_ms and total_ms must be real (non-negative, and
	// total >= 0.1ms for an actual simulation round-trip).
	totalMs := extractFloat(t, line, "total_ms")
	simMs := extractFloat(t, line, "sim_ms")
	if simMs <= 0 || totalMs < simMs {
		t.Errorf("timing fields implausible: sim_ms=%g total_ms=%g", simMs, totalMs)
	}

	// Per-endpoint metrics: exactly one load request, one 2xx.
	m := s.obs.endpoints["load"]
	if got := m.latency.Count(); got != 1 {
		t.Errorf("dora_http_load_seconds count = %d, want 1", got)
	}
	if got := m.status[0].Value(); got != 1 {
		t.Errorf("dora_http_load_status_2xx_total = %d, want 1", got)
	}
	if lat := m.latency.Sum(); lat <= 0 {
		t.Errorf("latency histogram sum = %g, want > 0", lat)
	}

	// The same counts through the exposition endpoint.
	resp2, metrics := postGet(t, ts.URL+"/metrics")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp2.StatusCode)
	}
	for _, want := range []string{
		"dora_http_load_seconds_count 1",
		"dora_http_load_requests_total 1",
		"dora_http_load_status_2xx_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The metrics scrape itself was counted on its own endpoint.
	if got := s.obs.endpoints["metrics"].reqs.Value(); got != 1 {
		t.Errorf("metrics endpoint requests = %d, want 1", got)
	}
}

// extractFloat pulls "key=<float>" out of a key=value log line.
func extractFloat(t *testing.T, line, key string) float64 {
	t.Helper()
	m := regexp.MustCompile(key + `=([0-9.]+)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no %s= field in %s", key, line)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse %s: %v", m[1], err)
	}
	return v
}

func TestRequestIDPropagation(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := newTestServer(t, Config{Log: obslog.New(logBuf, obslog.Options{})}, nil)

	// A well-formed inbound ID is propagated verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "edge-7f.a_1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "edge-7f.a_1" {
		t.Fatalf("propagated ID = %q, want edge-7f.a_1", got)
	}
	if line := logBuf.accessLine("rid=edge-7f.a_1"); line == "" {
		t.Fatalf("propagated ID missing from access log:\n%s", logBuf.String())
	}

	// Malformed inbound IDs (spaces, over-long, exotic bytes) are
	// replaced with a generated one, never logged verbatim.
	for _, bad := range []string{"has space", strings.Repeat("x", 65), "quo\"te"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set(RequestIDHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(RequestIDHeader); !ridPattern.MatchString(got) {
			t.Errorf("malformed inbound ID %q came back as %q, want generated", bad, got)
		}
	}
}

// TestAdmissionRejectedCounter is the load-shedding visibility
// satellite: a 429 must increment dora_admission_rejected_total (and
// show in /metrics), carry a jittered Retry-After within
// [base, 1.5*base], and log outcome=queue_full.
func TestAdmissionRejectedCounter(t *testing.T) {
	logBuf := &syncBuffer{}
	hold := make(chan struct{})
	s, ts := newTestServer(t,
		Config{Concurrency: 1, MaxQueue: 1, RetryAfter: 4 * time.Second,
			Log: obslog.New(logBuf, obslog.Options{})},
		func(s *Server) { s.cfg.BeforeSimHook = func(string) { <-hold } })

	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, _ := postJSON(t, ts.URL+"/v1/load", fmt.Sprintf(`{"page":"Alipay","seed":%d}`, 5000+i))
			resp.Body.Close()
			done <- struct{}{}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.InFlight() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("requests never filled the queue (in flight %d)", s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}

	if got := s.mRejects.Value(); got != 0 {
		t.Fatalf("rejected counter = %d before any shed", got)
	}
	for i := 1; i <= 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":9000}`)
		wantError(t, resp, body, http.StatusTooManyRequests, CodeQueueFull)
		if got := s.mRejects.Value(); got != uint64(i) {
			t.Fatalf("dora_admission_rejected_total = %d after %d sheds", got, i)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
		}
		// base 4s + up to 50% jitter, ceiling-rounded: [4, 6].
		if ra < 4 || ra > 6 {
			t.Errorf("jittered Retry-After = %d, want in [4, 6]", ra)
		}
	}

	resp, metrics := postGet(t, ts.URL+"/metrics")
	resp.Body.Close()
	if !strings.Contains(string(metrics), "dora_admission_rejected_total 3") {
		t.Error("/metrics does not expose dora_admission_rejected_total 3")
	}
	if line := logBuf.accessLine("outcome=queue_full"); line == "" {
		t.Errorf("no access line with outcome=queue_full:\n%s", logBuf.String())
	}

	close(hold)
	<-done
	<-done
}

func TestHealthzCarriesBuildAndDrainState(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	resp, body := postGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status   string  `json:"status"`
		Draining *bool   `json:"draining"`
		Version  string  `json:"version"`
		Go       string  `json:"go"`
		UptimeS  float64 `json:"uptime_s"`
		Requests *uint64 `json:"requests_total"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body: %v (%s)", err, body)
	}
	if h.Status != "ok" || h.Draining == nil || *h.Draining {
		t.Errorf("healthz = %+v, want status ok / draining false", h)
	}
	if h.Version == "" || !strings.HasPrefix(h.Go, "go1") || h.UptimeS < 0 || h.Requests == nil {
		t.Errorf("healthz missing build info: %s", body)
	}

	s.BeginDrain()
	resp, body = postGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "draining" || h.Draining == nil || !*h.Draining {
		t.Errorf("draining healthz = %s", body)
	}
}

func TestDebugVarsSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	// One real request first, so the serving counters are non-zero.
	resp, _ := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":17}`)
	resp.Body.Close()

	resp, body := postGet(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var v struct {
		Version string  `json:"version"`
		Go      string  `json:"go"`
		Uptime  float64 `json:"uptime_s"`
		Runtime struct {
			Goroutines int    `json:"goroutines"`
			HeapAlloc  uint64 `json:"heap_alloc"`
		} `json:"runtime"`
		Serving Stats             `json:"serving"`
		Metrics []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if v.Version == "" || !strings.HasPrefix(v.Go, "go1") {
		t.Errorf("missing build identity: %s", body)
	}
	if v.Runtime.Goroutines <= 0 || v.Runtime.HeapAlloc == 0 {
		t.Errorf("missing runtime stats: %+v", v.Runtime)
	}
	if v.Serving.Requests != 1 || v.Serving.SimExecutions != 1 {
		t.Errorf("serving stats = %+v, want 1 request / 1 execution", v.Serving)
	}
	if len(v.Metrics) == 0 {
		t.Error("metrics snapshot empty")
	}

	// Wrong method is still a structured error.
	respPost, errBody := postJSON(t, ts.URL+"/debug/vars", `{}`)
	wantError(t, respPost, errBody, http.StatusMethodNotAllowed, CodeMethod)
}

// TestPprofOptIn: profiling handlers exist only when the config asked
// for them.
func TestPprofOptIn(t *testing.T) {
	_, tsOff := newTestServer(t, Config{}, nil)
	resp, body := postGet(t, tsOff.URL+"/debug/pprof/")
	wantError(t, resp, body, http.StatusNotFound, CodeNotFound)

	_, tsOn := newTestServer(t, Config{EnablePprof: true}, nil)
	resp, body = postGet(t, tsOn.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d, body %.120s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index does not list profiles: %.200s", body)
	}
	// A real profile endpoint works end to end.
	resp, body = postGet(t, tsOn.URL+"/debug/pprof/goroutine?debug=1")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine profile")) {
		t.Errorf("goroutine profile: status %d body %.120s", resp.StatusCode, body)
	}
}

// TestAccessLogCampaign asserts campaign requests produce one access
// line with accumulated sim time across cells.
func TestAccessLogCampaign(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := newTestServer(t, Config{Log: obslog.New(logBuf, obslog.Options{})}, nil)
	resp, body := postJSON(t, ts.URL+"/v1/campaign",
		`{"pages":["Alipay"],"governors":["interactive","performance"],"seed":61}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign status %d: %s", resp.StatusCode, body)
	}
	line := logBuf.accessLine("endpoint=campaign")
	if line == "" {
		t.Fatalf("no campaign access line:\n%s", logBuf.String())
	}
	if simMs := extractFloat(t, line, "sim_ms"); simMs <= 0 {
		t.Errorf("campaign sim_ms = %g, want > 0", simMs)
	}
	if !strings.Contains(line, "status=200") || !strings.Contains(line, "outcome=ok") {
		t.Errorf("campaign line fields wrong: %s", line)
	}
}

// TestNilLogServerStaysQuiet: a server without a Log config must not
// panic anywhere on the logged paths.
func TestNilLogServerStaysQuiet(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	resp, _ := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":19}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestRetryAfterJitterBounds drives the jitter PRNG directly across
// many draws: every value must stay within [base, 1.5*base] seconds
// (ceiling-rounded) and the stream must not be constant.
func TestRetryAfterJitterBounds(t *testing.T) {
	s := NewServer(Config{RetryAfter: 10 * time.Second})
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.retryAfterSecs()
		if v < 10 || v > 15 {
			t.Fatalf("retryAfterSecs = %d, want in [10, 15]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("jitter produced a constant stream: %v", seen)
	}

	// Sub-second base still advertises at least one second.
	s2 := NewServer(Config{RetryAfter: 100 * time.Millisecond})
	if v := s2.retryAfterSecs(); v < 1 {
		t.Errorf("sub-second base gave Retry-After %d, want >= 1", v)
	}
}
