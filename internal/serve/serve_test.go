package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dora"
	"dora/internal/cache"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
)

// newTestServer builds a Server (applying mutate to the config before
// construction, so test hooks are installed before any goroutine can
// observe them) and mounts it on an httptest listener.
func newTestServer(t *testing.T, cfg Config, mutate func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	if mutate != nil {
		mutate(s)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain on cleanup: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

// wantError asserts a structured error response: given status, given
// code, non-empty message, application/json content type.
func wantError(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Err == nil {
		t.Fatalf("error body not structured: %s", body)
	}
	if eb.Err.Code != code {
		t.Fatalf("error code = %q, want %q (message %q)", eb.Err.Code, code, eb.Err.Message)
	}
	if eb.Err.Message == "" {
		t.Fatal("error without message")
	}
}

// TestLoadByteIdenticalToDirect is the transport-fidelity contract: a
// served load's response body is the exact JSON encoding of the result
// the library produces in-process for the same options and seed.
func TestLoadByteIdenticalToDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if src := resp.Header.Get("X-Dora-Source"); src != "sim" {
		t.Fatalf("X-Dora-Source = %q, want sim", src)
	}

	direct, err := dora.LoadPage(dora.LoadOptions{
		Device:           dora.DefaultDevice(),
		Governor:         dora.NewInteractive(),
		Page:             "Alipay",
		DecisionInterval: 20 * time.Millisecond,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served body differs from direct simulation:\n http %s\n lib  %s", body, want)
	}
}

// TestErrorPaths covers every structured refusal the decoder and
// router can produce, without running a single simulation.
func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"bad json", "POST", "/v1/load", `{"page":`, 400, CodeBadRequest},
		{"unknown field", "POST", "/v1/load", `{"page":"Alipay","bogus":1}`, 400, CodeBadRequest},
		{"trailing content", "POST", "/v1/load", `{"page":"Alipay"}{}`, 400, CodeBadRequest},
		{"missing page", "POST", "/v1/load", `{}`, 400, CodeBadRequest},
		{"unknown page", "POST", "/v1/load", `{"page":"no-such-page"}`, 404, CodeNotFound},
		{"unknown corunner", "POST", "/v1/load", `{"page":"Alipay","corunner":"zork"}`, 404, CodeNotFound},
		{"unknown governor", "POST", "/v1/load", `{"page":"Alipay","governor":"turbo"}`, 400, CodeBadRequest},
		{"fixed without freq", "POST", "/v1/load", `{"page":"Alipay","governor":"fixed"}`, 400, CodeBadRequest},
		{"freq conflicts governor", "POST", "/v1/load", `{"page":"Alipay","governor":"ondemand","freq_mhz":1190}`, 400, CodeBadRequest},
		{"negative duration", "POST", "/v1/load", `{"page":"Alipay","deadline_ms":-5}`, 400, CodeBadRequest},
		{"model governor without models", "POST", "/v1/load", `{"page":"Alipay","governor":"DORA"}`, 400, CodeModelRequired},
		{"load wrong method", "GET", "/v1/load", "", 405, CodeMethod},
		{"campaign wrong method", "GET", "/v1/campaign", "", 405, CodeMethod},
		{"campaign empty grid", "POST", "/v1/campaign", `{}`, 400, CodeBadRequest},
		{"campaign bad cell", "POST", "/v1/campaign", `{"pages":["no-such-page"]}`, 404, CodeNotFound},
		{"unknown route", "GET", "/v1/zork", "", 404, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			wantError(t, resp, body, tc.status, tc.code)
		})
	}
}

// TestUnknownGovernorMessage pins the exact 400 message for a governor
// name outside the table, list order included.
func TestUnknownGovernorMessage(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","governor":"turbo"}`)
	wantError(t, resp, body, http.StatusBadRequest, CodeBadRequest)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	const want = `unknown governor "turbo" (choose from [interactive performance powersave ondemand conservative fixed DORA DORA_no_lkg DL EE])`
	if eb.Err.Message != want {
		t.Fatalf("message = %q, want %q", eb.Err.Message, want)
	}
}

// TestBodyTooLarge sheds oversized payloads with a structured 413.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64}, nil)
	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","corunner":"`+strings.Repeat("x", 256)+`"}`)
	wantError(t, resp, body, http.StatusRequestEntityTooLarge, CodePayloadLarge)
}

// TestQueueFullSheds429 fills the admission queue deterministically
// (one simulating request parked on the test hook, one waiting on the
// semaphore) and asserts the next request is shed with 429 +
// Retry-After while the parked ones still complete.
func TestQueueFullSheds429(t *testing.T) {
	hold := make(chan struct{})
	s, ts := newTestServer(t, Config{Concurrency: 1, MaxQueue: 1}, func(s *Server) {
		s.cfg.BeforeSimHook = func(string) { <-hold }
	})

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, body := postJSON(t, ts.URL+"/v1/load", fmt.Sprintf(`{"page":"Alipay","seed":%d}`, 1000+i))
			results <- result{resp.StatusCode, body}
		}(i)
	}
	// Wait until both requests are admitted (one simulating, one queued).
	deadline := time.Now().Add(10 * time.Second)
	for s.InFlight() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("requests never filled the queue (in flight %d)", s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":3000}`)
	wantError(t, resp, body, http.StatusTooManyRequests, CodeQueueFull)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.mRejects.Value(); got != 1 {
		t.Fatalf("admission rejects = %d, want 1", got)
	}

	close(hold)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("parked request finished %d: %s", r.status, r.body)
		}
	}
}

// TestDeadlineExpires504 parks the simulation past the request's
// timeout_ms, asserts the structured 504, then verifies the abandoned
// simulation goroutine exits (no leak) once released.
func TestDeadlineExpires504(t *testing.T) {
	hold := make(chan struct{})
	s, ts := newTestServer(t, Config{}, func(s *Server) {
		s.cfg.BeforeSimHook = func(string) { <-hold }
	})
	before := runtime.NumGoroutine()

	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":42,"timeout_ms":50}`)
	wantError(t, resp, body, http.StatusGatewayTimeout, CodeDeadline)
	if got := s.mDeadline.Value(); got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}

	// Release the parked leader: its context is already cancelled (the
	// last waiter left on the 504), so the simulation must abort and its
	// goroutine exit — Drain returning within the timeout proves it.
	close(hold)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("abandoned simulation goroutine leaked: %v", err)
	}
	// With client keep-alive connections retired, the process goroutine
	// count must return to (at most) its pre-request baseline.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after 504: %d > %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentDedup is the singleflight contract under the race
// detector: N identical concurrent requests run exactly one
// simulation and receive N byte-identical bodies.
func TestConcurrentDedup(t *testing.T) {
	const n = 8
	hold := make(chan struct{})
	s, ts := newTestServer(t, Config{Concurrency: n + 2}, func(s *Server) {
		s.cfg.BeforeSimHook = func(string) { <-hold }
	})

	req, apiErr := DecodeLoadRequest([]byte(`{"page":"Reddit","seed":11}`))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	key := s.loadKey(req)

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	sources := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Reddit","seed":11}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, body %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
			sources[i] = resp.Header.Get("X-Dora-Source")
		}(i)
	}
	// Hold the leader until every request has joined its flight.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.Waiters(key) != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the flight", s.flights.Waiters(key), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	wg.Wait()

	if got := s.mExecs.Value(); got != 1 {
		t.Fatalf("simulations executed = %d, want exactly 1 for %d identical requests", got, n)
	}
	if got := s.mDedup.Value(); got != n-1 {
		t.Fatalf("dedup joins = %d, want %d", got, n-1)
	}
	var leaders int
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs:\n %s\n vs %s", i, bodies[i], bodies[0])
		}
	}
	for _, src := range sources {
		if src == "sim" {
			leaders++
		} else if src != "dedup" {
			t.Fatalf("unexpected X-Dora-Source %q", src)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
}

// TestDrain is the graceful-shutdown contract: after BeginDrain an
// in-flight simulation completes with 200 while new simulation
// requests are refused with 503 + Retry-After (healthz flips to 503;
// discovery and metrics stay available), and Drain returns once the
// in-flight work is done.
func TestDrain(t *testing.T) {
	hold := make(chan struct{})
	s, ts := newTestServer(t, Config{}, func(s *Server) {
		s.cfg.BeforeSimHook = func(string) { <-hold }
	})

	req, apiErr := DecodeLoadRequest([]byte(`{"page":"Alipay","seed":77}`))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	key := s.loadKey(req)

	inflight := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":77}`)
		inflight <- struct {
			status int
			body   []byte
		}{resp.StatusCode, body}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.Waiters(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never started simulating")
		}
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()

	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":78}`)
	wantError(t, resp, body, http.StatusServiceUnavailable, CodeDraining)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	resp, body = postJSON(t, ts.URL+"/v1/campaign", `{"pages":["Alipay"]}`)
	wantError(t, resp, body, http.StatusServiceUnavailable, CodeDraining)
	if got := s.mDrainRejects.Value(); got != 2 {
		t.Fatalf("drain rejects = %d, want 2", got)
	}

	hresp, hbody := postGet(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(hbody, []byte("draining")) {
		t.Fatalf("healthz during drain: %d %s", hresp.StatusCode, hbody)
	}
	if presp, _ := postGet(t, ts.URL+"/v1/pages"); presp.StatusCode != http.StatusOK {
		t.Fatalf("pages endpoint unavailable during drain: %d", presp.StatusCode)
	}

	close(hold)
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain finished %d: %s", r.status, r.body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestRunCacheWarmHit: a repeat request is served from the persistent
// cache with an identical body, and the cache survives a daemon
// restart (Save + fresh Server over the same file).
func TestRunCacheWarmHit(t *testing.T) {
	path := t.TempDir() + "/cache.json"
	cache, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache}, nil)

	resp, first := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":5}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Dora-Source") != "sim" {
		t.Fatalf("first request: %d source %q", resp.StatusCode, resp.Header.Get("X-Dora-Source"))
	}
	resp, second := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":5}`)
	if resp.Header.Get("X-Dora-Source") != "cache" {
		t.Fatalf("repeat request source %q, want cache", resp.Header.Get("X-Dora-Source"))
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached body differs:\n %s\n vs %s", second, first)
	}

	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}
	cache2, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Cache: cache2}, nil)
	resp, third := postJSON(t, ts2.URL+"/v1/load", `{"page":"Alipay","seed":5}`)
	if resp.Header.Get("X-Dora-Source") != "cache" {
		t.Fatalf("post-restart source %q, want cache", resp.Header.Get("X-Dora-Source"))
	}
	if !bytes.Equal(first, third) {
		t.Fatalf("post-restart body differs:\n %s\n vs %s", third, first)
	}
	if got := s2.mExecs.Value(); got != 0 {
		t.Fatalf("restarted server ran %d simulations, want 0", got)
	}
}

// TestCampaignDeterministicAcrossWorkers: the same campaign grid
// produces byte-identical responses at any fan-out width, and each
// cell's result is the exact body /v1/load returns for the grid-
// derived seed.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	const campaign = `{"pages":["Alipay","Reddit"],"seed":5}`
	_, ts1 := newTestServer(t, Config{Workers: 1}, nil)
	_, ts8 := newTestServer(t, Config{Workers: 8}, nil)

	resp1, body1 := postJSON(t, ts1.URL+"/v1/campaign", campaign)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("campaign (serial): %d %s", resp1.StatusCode, body1)
	}
	resp8, body8 := postJSON(t, ts8.URL+"/v1/campaign", campaign)
	if resp8.StatusCode != http.StatusOK {
		t.Fatalf("campaign (parallel): %d %s", resp8.StatusCode, body8)
	}
	if !bytes.Equal(body1, body8) {
		t.Fatalf("campaign response depends on worker count:\n w1 %s\n w8 %s", body1, body8)
	}

	var cr CampaignResponse
	if err := json.Unmarshal(body1, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cr.Cells))
	}
	for i, cell := range cr.Cells {
		if cell.Error != nil {
			t.Fatalf("cell %d failed: %v", i, cell.Error)
		}
		wantSeed := int64(5 + i*campaignSeedStride)
		if cell.Seed != wantSeed {
			t.Fatalf("cell %d seed = %d, want grid-derived %d", i, cell.Seed, wantSeed)
		}
		resp, single := postJSON(t, ts1.URL+"/v1/load",
			fmt.Sprintf(`{"page":%q,"seed":%d}`, cell.Page, cell.Seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single load for cell %d: %d %s", i, resp.StatusCode, single)
		}
		if !bytes.Equal([]byte(cell.Result), single) {
			t.Fatalf("cell %d result differs from single load:\n cell   %s\n single %s", i, cell.Result, single)
		}
	}
}

// TestDiscoveryAndMetricsEndpoints sanity-checks GET /v1/pages,
// /healthz, and the Prometheus exposition after one served load.
func TestDiscoveryAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)

	resp, body := postGet(t, ts.URL+"/v1/pages")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pages: %d %s", resp.StatusCode, body)
	}
	var pages struct {
		Pages         []string `json:"pages"`
		TrainingPages []string `json:"training_pages"`
		CoRunners     []string `json:"corunners"`
		Governors     []string `json:"governors"`
	}
	if err := json.Unmarshal(body, &pages); err != nil {
		t.Fatalf("pages body: %v (%s)", err, body)
	}
	if len(pages.Pages) == 0 || len(pages.CoRunners) == 0 || len(pages.Governors) == 0 {
		t.Fatalf("discovery lists empty: %+v", pages)
	}
	// Clients and doragate's discovery proxy read this list; its
	// members and their order are part of the API.
	wantGovs := []string{"interactive", "performance", "powersave", "ondemand", "conservative",
		"fixed", "DORA", "DORA_no_lkg", "DL", "EE"}
	if fmt.Sprint(pages.Governors) != fmt.Sprint(wantGovs) {
		t.Fatalf("governors = %q, want %q", pages.Governors, wantGovs)
	}

	resp, body = postGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":9}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}
	resp, body = postGet(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"dora_serve_requests_total 1",
		"dora_serve_sim_executions_total 1",
		"dora_serve_request_seconds",
		"dora_page_loads_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// goldenCampaignFingerprint mirrors the constant in internal/sim: the
// serve path must reproduce the simulator's observables bit for bit
// across an HTTP JSON round trip.
const goldenCampaignFingerprint = "6fb861cb938de3ecd7315541f893384f09ce8b43fd1d15996eba12489b13049c"

// TestServeCampaignFingerprintGolden runs the golden fingerprint
// campaign through the daemon — one server per device configuration
// the campaign uses — proving transport (JSON encode/decode, dedup,
// admission) is observable-preserving end to end.
func TestServeCampaignFingerprintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short")
	}
	servers := map[string]*httptest.Server{}
	for _, cfg := range []soc.Config{defaultDevice(), lruDevice()} {
		_, ts := newTestServer(t, Config{Device: cfg}, nil)
		servers[sim.ConfigFingerprint(cfg)] = ts
	}
	got, err := sim.CampaignFingerprintVia(1, func(cfg soc.Config, page, kern string, seed int64) (sim.Result, error) {
		ts := servers[sim.ConfigFingerprint(cfg)]
		if ts == nil {
			return sim.Result{}, fmt.Errorf("no server for config %s", sim.ConfigFingerprint(cfg))
		}
		body := fmt.Sprintf(`{"page":%q,"seed":%d}`, page, seed)
		if kern != "" {
			body = fmt.Sprintf(`{"page":%q,"corunner":%q,"seed":%d}`, page, kern, seed)
		}
		resp, data := postJSON(t, ts.URL+"/v1/load", body)
		if resp.StatusCode != http.StatusOK {
			return sim.Result{}, fmt.Errorf("load %s: %d %s", body, resp.StatusCode, data)
		}
		var r sim.Result
		if err := json.Unmarshal(data, &r); err != nil {
			return sim.Result{}, err
		}
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenCampaignFingerprint {
		t.Fatalf("serve-path campaign fingerprint drifted:\n got  %s\n want %s\nthe HTTP transport is no longer observable-preserving", got, goldenCampaignFingerprint)
	}
}

func defaultDevice() soc.Config { return soc.NexusFive() }

func lruDevice() soc.Config {
	cfg := soc.NexusFive()
	cfg.L2Replacement = cache.LRU
	return cfg
}

// goldenKeyRequests are two fully populated load requests, one per
// fidelity, whose cache and routing keys are pinned below: runcache.Key
// hashes the request's JSON encoding, so any change to the request
// type's field names, order, tags, or types would silently orphan every
// on-disk cache entry and move every routing placement.
var goldenKeyRequests = []LoadRequest{
	{
		Page: "Alipay", CoRunner: "srad", Governor: "ondemand", FreqMHz: 0,
		DeadlineMs: 2500, DecisionIntervalMs: 40, WarmupMs: 300, MaxLoadMs: 20000,
		Seed: 12345, AmbientC: 31.5, TimeoutMs: 9000, Fidelity: "exact",
	},
	{
		Page: "Reddit", CoRunner: "kmeans", Governor: "fixed", FreqMHz: 1190,
		DeadlineMs: 3100, DecisionIntervalMs: 25, WarmupMs: 750, MaxLoadMs: 15000,
		Seed: -77, AmbientC: 18.25, TimeoutMs: 4000, Fidelity: "sampled",
	},
}

// TestLoadKeyGolden pins Server.loadKey for goldenKeyRequests on the
// default device.
func TestLoadKeyGolden(t *testing.T) {
	s := NewServer(Config{})
	want := []string{
		"a6b3bddb01323e199fd5fe6cdfa0ea7f1826ed6580ef9524e9ea5b2f603e5fc2",
		"cdbd6af1be5b92bb19239d1e48c88335e9ea206be06b8a91d5c83dca1065fcac",
	}
	for i, req := range goldenKeyRequests {
		if got := s.loadKey(req); got != want[i] {
			t.Errorf("loadKey(%s/%s) = %s, want %s", req.Page, req.Fidelity, got, want[i])
		}
	}
}
