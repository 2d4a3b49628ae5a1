package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dora/internal/serve"
	"dora/internal/telemetry"
)

// newTestGateway builds a gateway over workers that don't exist —
// enough for routing/refusal unit tests; the harness package covers
// real forwarding.
func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.Members == nil {
		cfg.Members = []Member{{Name: "w0", URL: "http://127.0.0.1:1"}}
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func doReq(t *testing.T, h http.Handler, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func TestNewGatewayValidation(t *testing.T) {
	if _, err := NewGateway(Config{}); err == nil {
		t.Fatal("gateway with no members built")
	}
	if _, err := NewGateway(Config{
		Members:   []Member{{URL: "http://x"}},
		Transport: "carrier-pigeon",
	}); err == nil {
		t.Fatal("gateway with unknown transport built")
	}
	// The stream dials plain http:// only: an https worker under the
	// default transport is refused up front, naming the way out.
	https := []Member{{URL: "http://a:8077"}, {URL: "https://b:8077"}}
	if _, err := NewGateway(Config{Members: https}); err == nil || !strings.Contains(err.Error(), "-transport json") {
		t.Fatalf("https worker under the stream transport: err = %v, want one naming -transport json", err)
	}
	g, err := NewGateway(Config{Members: https, Transport: TransportJSON})
	if err != nil {
		t.Fatalf("https worker under the JSON transport: %v", err)
	}
	g.Close()
}

// TestGatewayRefusals covers the request-level refusals the gateway
// produces without reaching any worker.
func TestGatewayRefusals(t *testing.T) {
	g := newTestGateway(t, Config{})
	h := g.Handler()

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"load wrong method", http.MethodGet, "/v1/load", "", http.StatusMethodNotAllowed, serve.CodeMethod},
		{"campaign wrong method", http.MethodGet, "/v1/campaign", "", http.StatusMethodNotAllowed, serve.CodeMethod},
		{"pages wrong method", http.MethodPost, "/v1/pages", "{}", http.StatusMethodNotAllowed, serve.CodeMethod},
		{"cluster wrong method", http.MethodPost, "/v1/cluster", "{}", http.StatusMethodNotAllowed, serve.CodeMethod},
		{"unknown route", http.MethodGet, "/v2/nope", "", http.StatusNotFound, serve.CodeNotFound},
		{"malformed body", http.MethodPost, "/v1/load", "{", http.StatusBadRequest, serve.CodeBadRequest},
		{"unknown page", http.MethodPost, "/v1/load", `{"page":"NotAPage"}`, http.StatusNotFound, serve.CodeNotFound},
		{"unknown field", http.MethodPost, "/v1/load", `{"page":"Alipay","warp":9}`, http.StatusBadRequest, serve.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, h, tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if code := resp.Header.Get(serve.ErrorCodeHeader); code != tc.code {
				t.Fatalf("code = %q, want %q (body %s)", code, tc.code, body)
			}
		})
	}
}

// TestGatewayUnreachableWorkers: every forward attempt fails at the
// transport, so a valid request exhausts the (one-member) rank list
// and is refused 503 + Retry-After with the gateway's own code — and
// the failure counted toward that member's eviction.
func TestGatewayUnreachableWorkers(t *testing.T) {
	g := newTestGateway(t, Config{})
	resp, body := doReq(t, g.Handler(), http.MethodPost, "/v1/load", `{"page":"Alipay","seed":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if code := resp.Header.Get(serve.ErrorCodeHeader); code != CodeNoWorkers {
		t.Fatalf("code = %q, want %q", code, CodeNoWorkers)
	}
	if st, _ := status(g.ms, "w0"); st.Fails == 0 {
		t.Fatal("transport failure not counted against the member")
	}
}

// TestGatewayHealthzNoWorkers: with every member evicted the gateway
// reports itself unplaceable (503) so load balancers stop sending it
// traffic.
func TestGatewayHealthzNoWorkers(t *testing.T) {
	g := newTestGateway(t, Config{FailThreshold: 1})
	g.ms.ReportFailure("w0")
	resp, body := doReq(t, g.Handler(), http.MethodGet, "/healthz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d %s, want 503", resp.StatusCode, body)
	}
}

// TestRouteKeyTimeoutInvariant: the processing deadline must not move
// a request between workers — retries with a different budget hit the
// same cache.
func TestRouteKeyTimeoutInvariant(t *testing.T) {
	g := newTestGateway(t, Config{Fingerprint: "fp"})
	base := serve.LoadRequest{Page: "Alipay", Governor: "interactive", Seed: 9}
	withTimeout := base
	withTimeout.TimeoutMs = 12_000
	if g.routeKey(base) != g.routeKey(withTimeout) {
		t.Fatal("timeout_ms shifted the routing key")
	}
	otherSeed := base
	otherSeed.Seed = 10
	if g.routeKey(base) == g.routeKey(otherSeed) {
		t.Fatal("distinct seeds share a routing key")
	}
}

// TestRouteKeyGolden pins Gateway.routeKey for two fully populated
// requests, one per fidelity: routing keys hash the request's JSON
// encoding, so a change to the request type's shape would move every
// placement (and with it every worker's warm cache). A
// runcache.SchemaVersion bump moves both keys on purpose.
func TestRouteKeyGolden(t *testing.T) {
	g := newTestGateway(t, Config{Fingerprint: "golden-fp"})
	reqs := []serve.LoadRequest{
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
	want := []string{
		"80f0cdceb1ded1ac47444fb026079448d8b97e56f0944bdd99e6de0e331c8dc2",
		"557c9c5f7c85a0a11509323b931d0edf4c3b9f90042d725844f2f60db9614267",
	}
	for i, req := range reqs {
		if got := g.routeKey(req); got != want[i] {
			t.Errorf("routeKey(%s/%s) = %s, want %s", req.Page, req.Fidelity, got, want[i])
		}
	}
}

// TestGatewayUpgradeRefusedMessage pins the 502 a stream forward makes
// of a worker that refuses the upgrade with a status the gateway does
// not retry as a refusal (426, version skew): a transport failure that
// names the worker's code and status, and re-routes.
func TestGatewayUpgradeRefusedMessage(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, &serve.APIError{Status: http.StatusUpgradeRequired, Code: serve.CodeWireVersion,
			Message: "wire protocol version skew"}, 0)
	}))
	t.Cleanup(ts.Close)
	g := newTestGateway(t, Config{Members: []Member{{Name: "w0", URL: ts.URL}}, Transport: TransportStream})
	req, apiErr := serve.DecodeLoadRequestDefault([]byte(`{"page":"Alipay","seed":1}`), g.cfg.DefaultFidelity)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	_, apiErr, retryable := g.forwardOnce(context.Background(), "w0", req)
	if apiErr == nil {
		t.Fatal("forward to a refusing worker succeeded")
	}
	const want = "forward to worker failed: wire_version: stream upgrade refused (http 426)"
	if apiErr.Status != http.StatusBadGateway || apiErr.Code != serve.CodeInternal || apiErr.Message != want || !retryable {
		t.Fatalf("forward = %d %s %q retryable=%v, want 502 internal %q retryable", apiErr.Status, apiErr.Code, apiErr.Message, retryable, want)
	}
}

// fakeWorkers starts two httptest workers, w0 and w1. The one named by
// *bad answers every request with a 200 whose body is one byte over
// limit; the other answers with good.
func fakeWorkers(t *testing.T, limit int64, bad *string, good string) []Member {
	t.Helper()
	var members []Member
	for _, name := range []string{"w0", "w1"} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(serve.SourceHeader, "cache")
			if name == *bad {
				_, _ = w.Write(bytes.Repeat([]byte("x"), int(limit)+1))
				return
			}
			_, _ = io.WriteString(w, good)
		}))
		t.Cleanup(ts.Close)
		members = append(members, Member{Name: name, URL: ts.URL})
	}
	return members
}

// TestGatewayOverLimitLoadReroutes: a worker whose response body runs
// one byte past the gateway's worker-body limit is a failed forward,
// not a truncated 200, so the load re-routes to the next-ranked worker.
func TestGatewayOverLimitLoadReroutes(t *testing.T) {
	const limit = 64
	const good = `{"LoadTime":1}`
	var bad string
	// The fake workers speak JSON only.
	g := newTestGateway(t, Config{Members: fakeWorkers(t, limit, &bad, good), Transport: TransportJSON})
	g.maxWorkerBody = limit
	const body = `{"page":"Alipay","seed":1}`
	req, apiErr := serve.DecodeLoadRequestDefault([]byte(body), g.cfg.DefaultFidelity)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	rank := Rank(g.routeKey(req), g.ms.Live())
	bad = rank[0]

	resp, got := doReq(t, g.Handler(), http.MethodPost, "/v1/load", body)
	if resp.StatusCode != http.StatusOK || string(got) != good {
		t.Fatalf("load = %d %q, want 200 %q from the next worker", resp.StatusCode, got, good)
	}
	if w, a := resp.Header.Get(WorkerHeader), resp.Header.Get(AttemptsHeader); w != rank[1] || a != "2" {
		t.Fatalf("answered by %q after %s attempts, want %q after 2", w, a, rank[1])
	}
	if n := g.mFwdErrors.Value(); n != 1 {
		t.Fatalf("forward errors = %d, want 1", n)
	}
}

// TestGatewayOverLimitStreamFails is the stream twin of
// TestGatewayOverLimitLoadReroutes, over real workers: a result frame
// past the worker-body limit fails the forward on every worker it is
// tried on, and the load is refused, never answered with a truncated
// 200.
func TestGatewayOverLimitStreamFails(t *testing.T) {
	var members []Member
	for _, name := range []string{"w0", "w1"} {
		srv := serve.NewServer(serve.Config{Metrics: telemetry.NewRegistry()})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			if err := srv.Drain(context.Background()); err != nil {
				t.Errorf("drain %s: %v", name, err)
			}
		})
		members = append(members, Member{Name: name, URL: ts.URL})
	}
	g := newTestGateway(t, Config{Members: members, Transport: TransportStream})
	g.maxWorkerBody = 64 // a load result is a few KiB
	resp, got := doReq(t, g.Handler(), http.MethodPost, "/v1/load", `{"page":"Alipay","seed":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("load = %d %q, want 503 after both workers failed", resp.StatusCode, got)
	}
	if code := resp.Header.Get(serve.ErrorCodeHeader); code != CodeNoWorkers {
		t.Fatalf("code = %q, want %q", code, CodeNoWorkers)
	}
	if n := g.mForwards.Value(); n != 2 {
		t.Fatalf("forward attempts = %d, want 2 (both workers tried)", n)
	}
	if n := g.mFwdErrors.Value(); n != 2 {
		t.Fatalf("forward errors = %d, want 2", n)
	}
}

// TestGatewayOverLimitPagesMovesOn: the pages proxy bounds worker
// bodies by the worker-body limit, not the inbound request limit, and
// moves on to the next worker past an over-limit one.
func TestGatewayOverLimitPagesMovesOn(t *testing.T) {
	const limit = 64
	const good = `{"pages":["Alipay"]}`
	var bad string
	g := newTestGateway(t, Config{Members: fakeWorkers(t, limit, &bad, good)})
	g.maxWorkerBody = limit
	rank := Rank("v1-pages", g.ms.Live())
	bad = rank[0]

	resp, got := doReq(t, g.Handler(), http.MethodGet, "/v1/pages", "")
	if resp.StatusCode != http.StatusOK || string(got) != good {
		t.Fatalf("pages = %d %q, want 200 %q", resp.StatusCode, got, good)
	}
	if w := resp.Header.Get(WorkerHeader); w != rank[1] {
		t.Fatalf("pages answered by %q, want %q", w, rank[1])
	}
}
