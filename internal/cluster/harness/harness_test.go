package harness_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/cache"
	"dora/internal/cluster"
	"dora/internal/cluster/harness"
	"dora/internal/serve"
	"dora/internal/sim"
	"dora/internal/soc"
)

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

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

// members reads the gateway's member table from GET /v1/cluster.
func members(t *testing.T, c *harness.Cluster) []cluster.Status {
	t.Helper()
	resp, data := getJSON(t, c.URL()+"/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: %d %s", resp.StatusCode, data)
	}
	var body struct {
		Members []cluster.Status `json:"members"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("decode /v1/cluster: %v", err)
	}
	return body.Members
}

// memberState is name's state as GET /v1/cluster reports it.
func memberState(t *testing.T, c *harness.Cluster, name string) string {
	t.Helper()
	for _, st := range members(t, c) {
		if st.Name == name {
			return st.StateName
		}
	}
	t.Fatalf("GET /v1/cluster lists no member %q", name)
	return ""
}

// loadVia posts one load through the gateway and returns the body plus
// the worker/attempts routing headers.
func loadVia(t *testing.T, c *harness.Cluster, body string) ([]byte, string, int) {
	t.Helper()
	resp, data := postJSON(t, c.URL()+"/v1/load", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load %s: %d %s", body, resp.StatusCode, data)
	}
	attempts, _ := strconv.Atoi(resp.Header.Get(cluster.AttemptsHeader))
	return data, resp.Header.Get(cluster.WorkerHeader), attempts
}

// findSeedFor hunts a seed whose load the gateway places on worker
// want. With W live workers a seed hits a given one with probability
// ~1/W, so 32 tries miss with probability ~(1-1/W)^32.
func findSeedFor(t *testing.T, c *harness.Cluster, want string) int64 {
	t.Helper()
	for seed := int64(1); seed <= 32; seed++ {
		_, worker, _ := loadVia(t, c, fmt.Sprintf(`{"page":"Alipay","seed":%d}`, seed))
		if worker == want {
			return seed
		}
	}
	t.Fatalf("no seed in 1..32 routed to %s (placement badly skewed?)", want)
	return 0
}

// forEachTransport runs fn as one subtest per gateway→worker
// transport: the cluster must behave the same on either.
func forEachTransport(t *testing.T, fn func(t *testing.T, transport string)) {
	for _, transport := range []string{cluster.TransportJSON, cluster.TransportStream} {
		t.Run(transport, func(t *testing.T) { fn(t, transport) })
	}
}

func lruDevice() soc.Config {
	cfg := soc.NexusFive()
	cfg.L2Replacement = cache.LRU
	return cfg
}

// goldenCampaignFingerprint mirrors internal/sim's constant: the whole
// cluster — gateway routing, re-routes, both transports, any width —
// must reproduce the simulator's observables bit for bit.
const goldenCampaignFingerprint = "6fb861cb938de3ecd7315541f893384f09ce8b43fd1d15996eba12489b13049c"

// gatewayFingerprint replays the golden campaign through a cluster of
// the given width (one cluster per device configuration the campaign
// uses, like the single-node golden test runs one server per config).
func gatewayFingerprint(t *testing.T, width int, transport string) string {
	t.Helper()
	clusters := map[string]*harness.Cluster{}
	for _, dev := range []soc.Config{soc.NexusFive(), lruDevice()} {
		clusters[sim.ConfigFingerprint(dev)] = harness.New(t, width, harness.Options{
			Device:    dev,
			Transport: transport,
		})
	}
	got, err := sim.CampaignFingerprintVia(1, func(cfg soc.Config, page, kern string, seed int64) (sim.Result, error) {
		c := clusters[sim.ConfigFingerprint(cfg)]
		if c == nil {
			return sim.Result{}, fmt.Errorf("no cluster for config %s", sim.ConfigFingerprint(cfg))
		}
		body := fmt.Sprintf(`{"page":%q,"seed":%d}`, page, seed)
		if kern != "" {
			body = fmt.Sprintf(`{"page":%q,"corunner":%q,"seed":%d}`, page, kern, seed)
		}
		resp, data := postJSON(t, c.URL()+"/v1/load", body)
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
	return got
}

// TestGatewayCampaignFingerprintGolden is the cluster's headline
// contract: the golden campaign replayed through the gateway is
// byte-identical to a single in-process node at every cluster width,
// over either transport — placement only decides *where* a cell runs,
// never what it computes.
func TestGatewayCampaignFingerprintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaigns; skipped in -short")
	}
	for _, width := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("width-%d", width), func(t *testing.T) {
			forEachTransport(t, func(t *testing.T, transport string) {
				if got := gatewayFingerprint(t, width, transport); got != goldenCampaignFingerprint {
					t.Fatalf("gateway campaign fingerprint drifted at width %d over %s:\n got  %s\n want %s\nrouting is no longer observable-preserving", width, transport, got, goldenCampaignFingerprint)
				}
			})
		})
	}
}

// campaignBody is a small fast grid (4 browser-alone cells) used by
// the byte-identity and fault tests.
const campaignBody = `{"pages":["Alipay","Reddit"],"governors":["interactive","powersave"],"seed":11}`

// singleNodeCampaign is campaignBody's response from one dorad node,
// the reference a cluster's aggregate must match byte for byte.
func singleNodeCampaign(t *testing.T) (body []byte, source string) {
	t.Helper()
	single := harness.New(t, 1, harness.Options{})
	resp, body := postJSON(t, single.Nodes[0].TS.URL+"/v1/campaign", campaignBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node campaign: %d %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get(serve.SourceHeader)
}

// TestGatewayCampaignBytesMatchSingleNode asserts the strongest
// transport property short of the golden campaign: the gateway's
// assembled /v1/campaign response — cells fanned out across three
// workers — is byte-for-byte the response one dorad node writes for
// the same request.
func TestGatewayCampaignBytesMatchSingleNode(t *testing.T) {
	want, wantSource := singleNodeCampaign(t)
	forEachTransport(t, func(t *testing.T, transport string) {
		c := harness.New(t, 3, harness.Options{Transport: transport})
		resp, got := postJSON(t, c.URL()+"/v1/campaign", campaignBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway campaign: %d %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("gateway campaign differs from single node:\n gate   %s\n single %s", got, want)
		}
		if src := resp.Header.Get(serve.SourceHeader); src != wantSource {
			t.Fatalf("aggregate source = %q, want %q", src, wantSource)
		}
	})
}

// TestWorkerKilledMidCampaign kills a worker the moment it starts
// simulating its first campaign cell: the severed cells must re-route
// to surviving workers and the final aggregate must still be
// byte-identical to a healthy single node's.
func TestWorkerKilledMidCampaign(t *testing.T) {
	want, _ := singleNodeCampaign(t)
	forEachTransport(t, func(t *testing.T, transport string) {
		var (
			c    *harness.Cluster
			once sync.Once
		)
		const victim = 1
		c = harness.New(t, 3, harness.Options{
			Transport: transport,
			Serve: func(i int, cfg *serve.Config) {
				if i == victim {
					cfg.BeforeSimHook = func(string) {
						once.Do(func() { c.Kill(victim) })
					}
				}
			},
		})
		resp, got := postJSON(t, c.URL()+"/v1/campaign", campaignBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway campaign with killed worker: %d %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("aggregate diverged after mid-campaign kill:\n gate   %s\n single %s", got, want)
		}
	})
}

// TestAllWorkersDrained asserts the cluster-wide refusal: with every
// worker in graceful drain the gateway answers 503 + Retry-After with
// its own no_live_workers code — before probes notice (each forward
// comes back "draining") and after (placement set empty).
func TestAllWorkersDrained(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		c := harness.New(t, 2, harness.Options{Transport: transport})
		c.Drain(0)
		c.Drain(1)

		resp, body := postJSON(t, c.URL()+"/v1/load", `{"page":"Alipay","seed":3}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
		if code := resp.Header.Get(serve.ErrorCodeHeader); code != cluster.CodeNoWorkers {
			t.Fatalf("error code = %q, want %q (body %s)", code, cluster.CodeNoWorkers, body)
		}
		// A draining worker is not a failing one, on either transport.
		for _, st := range members(t, c) {
			if st.Fails != 0 {
				t.Fatalf("%s has %d failures after answering draining", st.Name, st.Fails)
			}
		}

		// After a probe round both workers report draining, placement is
		// empty, and the gateway's own health flips to 503.
		c.ProbeRounds(1)
		for _, st := range members(t, c) {
			if st.StateName == cluster.StateAlive.String() {
				t.Fatalf("%s still alive, want none (all draining)", st.Name)
			}
		}
		resp, body = postJSON(t, c.URL()+"/v1/load", `{"page":"Alipay","seed":3}`)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("post-probe refusal: %d %s", resp.StatusCode, body)
		}
		if resp, body := getJSON(t, c.URL()+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("gateway healthz with no workers: %d %s", resp.StatusCode, body)
		}
	})
}

// TestHungWorkerEvictedAndRejoins hangs a worker (TCP up, nothing
// answering), steps probe rounds until the consecutive-failure
// threshold evicts it, verifies traffic flows on the survivor, then
// releases the hang and verifies one good probe restores placement.
func TestHungWorkerEvictedAndRejoins(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		c := harness.New(t, 2, harness.Options{Transport: transport, FailThreshold: 2})
		c.Hang(0)

		c.ProbeRounds(1)
		if st := memberState(t, c, "w0"); st != cluster.StateAlive.String() {
			t.Fatalf("w0 after 1 failed probe: %v, want still alive (threshold 2)", st)
		}
		c.ProbeRounds(1)
		if st := memberState(t, c, "w0"); st != cluster.StateDead.String() {
			t.Fatalf("w0 after 2 failed probes: %v, want dead", st)
		}

		// Every key now lands on the survivor, first attempt.
		for seed := int64(1); seed <= 4; seed++ {
			_, worker, attempts := loadVia(t, c, fmt.Sprintf(`{"page":"Alipay","seed":%d}`, seed))
			if worker != "w1" || attempts != 1 {
				t.Fatalf("seed %d: worker=%s attempts=%d, want w1 in 1 attempt", seed, worker, attempts)
			}
		}

		c.ReleaseHang(0)
		c.ProbeRounds(1)
		if st := memberState(t, c, "w0"); st != cluster.StateAlive.String() {
			t.Fatalf("w0 after release + probe: %v, want alive", st)
		}
		findSeedFor(t, c, "w0") // traffic reaches the rejoined worker again
	})
}

// TestFaultBurstReroutes injects a one-shot failure in front of a
// healthy worker — a bare 500 on JSON, a severed connection on the
// stream: the gateway re-routes to the next-ranked worker, which
// computes byte-identical results (same key, same bytes — on any
// worker).
func TestFaultBurstReroutes(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		c := harness.New(t, 2, harness.Options{Transport: transport})
		body := `{"page":"Alipay","seed":5}`
		want, first, attempts := loadVia(t, c, body)
		if attempts != 1 {
			t.Fatalf("healthy load took %d attempts", attempts)
		}
		victim := 0
		if first == "w1" {
			victim = 1
		}
		c.FailNext(victim, 1)
		got, worker, attempts := loadVia(t, c, body)
		if worker == first || attempts != 2 {
			t.Fatalf("after fault burst: worker=%s attempts=%d, want re-route off %s in 2 attempts", worker, attempts, first)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-routed result differs:\n %s\n %s", got, want)
		}
	})
}

// TestSlowWorkerRerouted injects response latency above the gateway's
// per-attempt forward deadline: the attempt times out and the request
// completes on another worker instead of stalling the client.
func TestSlowWorkerRerouted(t *testing.T) {
	// The forward deadline must be comfortably above one simulation
	// (which can take a second under -race) while the injected latency
	// stays far above the deadline, so the timing assertion has wide
	// margins in both directions.
	const (
		forwardTimeout  = 2 * time.Second
		injectedLatency = 60 * time.Second
	)
	forEachTransport(t, func(t *testing.T, transport string) {
		c := harness.New(t, 2, harness.Options{Transport: transport, ForwardTimeout: forwardTimeout})
		body := `{"page":"Alipay","seed":6}`
		want, first, _ := loadVia(t, c, body)
		victim := 0
		if first == "w1" {
			victim = 1
		}
		c.SetLatency(victim, injectedLatency)
		start := time.Now()
		got, worker, attempts := loadVia(t, c, body)
		if worker == first || attempts < 2 {
			t.Fatalf("slow worker not re-routed: worker=%s attempts=%d", worker, attempts)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-routed result differs:\n %s\n %s", got, want)
		}
		if elapsed := time.Since(start); elapsed >= injectedLatency {
			t.Fatalf("request waited out the injected latency (%s); forward deadline did not fire", elapsed)
		}
	})
}

// loadResult is one background load's answer.
type loadResult struct {
	status   int
	worker   string
	attempts string
	body     []byte
	err      error
}

// startLoad posts one load through the gateway in the background.
func startLoad(c *harness.Cluster, body string) <-chan loadResult {
	out := make(chan loadResult, 1)
	go func() {
		resp, err := http.Post(c.URL()+"/v1/load", "application/json", strings.NewReader(body))
		if err != nil {
			out <- loadResult{err: err}
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		out <- loadResult{status: resp.StatusCode, worker: resp.Header.Get(cluster.WorkerHeader),
			attempts: resp.Header.Get(cluster.AttemptsHeader), body: data, err: err}
	}()
	return out
}

// TestTimedOutForwardFailsOnlyItsRequest: a load whose own deadline
// expires while its worker simulates answers 504 alone. Another load
// in flight to the same worker — on the stream, over the same
// connection — still completes there on its first attempt, instead of
// being failed and re-routed with it.
func TestTimedOutForwardFailsOnlyItsRequest(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		parked := make(chan struct{}, 1)
		release := make(chan struct{})
		releaseAll := sync.OnceFunc(func() { close(release) })
		// Worker w0 parks every simulation until released; w1 runs them.
		c := harness.New(t, 2, harness.Options{
			Transport:      transport,
			ForwardTimeout: 30 * time.Second,
			Serve: func(i int, cfg *serve.Config) {
				if i == 0 {
					cfg.BeforeSimHook = func(string) {
						select {
						case parked <- struct{}{}:
						case <-release:
						}
						<-release
					}
				}
			},
		})
		t.Cleanup(releaseAll)

		// parkOnW0 tries seeds from `from` until a load parks on w0
		// (one routed to w1 just completes there) and returns its answer.
		parkOnW0 := func(from int64, timeoutMs int) <-chan loadResult {
			t.Helper()
			for seed := from; seed < from+32; seed++ {
				body := fmt.Sprintf(`{"page":"Alipay","seed":%d,"timeout_ms":%d}`, seed, timeoutMs)
				res := startLoad(c, body)
				select {
				case <-parked:
					return res
				case r := <-res:
					if r.err != nil {
						t.Fatalf("load %s: %v", body, r.err)
					}
				}
			}
			t.Fatalf("no seed in %d..%d routed to w0", from, from+31)
			return nil
		}
		second := parkOnW0(100, 0)
		first := parkOnW0(200, 200)

		r := <-first
		if r.err != nil || r.status != http.StatusGatewayTimeout {
			t.Fatalf("timed-out load = %d %s (%v), want 504", r.status, r.body, r.err)
		}
		releaseAll()
		r = <-second
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("load beside the timed-out one = %d %s (%v), want 200", r.status, r.body, r.err)
		}
		if r.worker != "w0" || r.attempts != "1" {
			t.Fatalf("load beside the timed-out one answered by %s after %s attempts, want w0 after 1", r.worker, r.attempts)
		}
	})
}

// TestDrainKeepsInFlightStreamCalls: a worker that starts draining
// says goodbye on its stream, and the gateway stops placing new loads
// on it. A load already in flight on that connection still completes
// there on its first attempt, as it would over JSON, instead of being
// failed with the connection and recomputed elsewhere.
func TestDrainKeepsInFlightStreamCalls(t *testing.T) {
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	var armed atomic.Bool
	// Once armed, worker w0 parks its next simulation until released.
	c := harness.New(t, 2, harness.Options{
		Transport: cluster.TransportStream,
		Serve: func(i int, cfg *serve.Config) {
			if i == 0 {
				cfg.BeforeSimHook = func(string) {
					if armed.CompareAndSwap(true, false) {
						parked <- struct{}{}
						<-release
					}
				}
			}
		},
	})
	t.Cleanup(releaseAll)

	// Two seeds that route to w0 (placement is deterministic per key).
	var seeds []int64
	for seed := int64(1); seed <= 32 && len(seeds) < 2; seed++ {
		if _, worker, _ := loadVia(t, c, fmt.Sprintf(`{"page":"Alipay","seed":%d}`, seed)); worker == "w0" {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < 2 {
		t.Fatalf("seeds routed to w0 in 1..32: %v, want 2", seeds)
	}

	armed.Store(true)
	inFlight := startLoad(c, fmt.Sprintf(`{"page":"Alipay","seed":%d}`, seeds[0]))
	<-parked
	c.Drain(0)

	// The next load for w0 re-routes. Repeat until the gateway has
	// seen w0's goodbye on the stream (and so left it out of
	// placement), not only a per-request draining refusal.
	next := fmt.Sprintf(`{"page":"Alipay","seed":%d}`, seeds[1])
	for i := 0; ; i++ {
		if _, worker, _ := loadVia(t, c, next); worker != "w1" {
			t.Fatalf("load for draining w0 answered by %s, want w1", worker)
		}
		if st := memberState(t, c, "w0"); st == cluster.StateDraining.String() {
			break
		}
		if i == 20 {
			t.Fatal("gateway never saw w0's goodbye on the stream")
		}
		time.Sleep(10 * time.Millisecond)
	}

	releaseAll()
	r := <-inFlight
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight load = %d %s (%v), want 200", r.status, r.body, r.err)
	}
	if r.worker != "w0" || r.attempts != "1" {
		t.Fatalf("in-flight load answered by %s after %s attempts, want w0 after 1", r.worker, r.attempts)
	}
}

// TestStreamTransportKillReroute exercises the wire transport end to
// end: loads pipeline over per-worker stream connections, a killed
// worker's severed connection turns into a redial failure and a
// re-route, and revival plus one probe restores it.
func TestStreamTransportKillReroute(t *testing.T) {
	c := harness.New(t, 2, harness.Options{Transport: cluster.TransportStream})
	body := `{"page":"Alipay","seed":8}`
	want, first, attempts := loadVia(t, c, body)
	if attempts != 1 {
		t.Fatalf("healthy stream load took %d attempts", attempts)
	}
	victim := 0
	if first == "w1" {
		victim = 1
	}
	c.Kill(victim)
	got, worker, attempts := loadVia(t, c, body)
	if worker == first || attempts < 2 {
		t.Fatalf("after kill: worker=%s attempts=%d, want re-route off %s", worker, attempts, first)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-routed stream result differs:\n %s\n %s", got, want)
	}

	c.Revive(victim)
	c.ProbeRounds(1)
	if st := memberState(t, c, first); st != cluster.StateAlive.String() {
		t.Fatalf("%s after revive + probe: %v, want alive", first, st)
	}
	if _, _, attempts := loadVia(t, c, body); attempts != 1 {
		t.Fatalf("revived cluster load took %d attempts", attempts)
	}
}

// TestGatewayDiscoveryAndClusterEndpoints covers the proxied and
// gateway-local read endpoints.
func TestGatewayDiscoveryAndClusterEndpoints(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		c := harness.New(t, 2, harness.Options{Transport: transport})
		resp, body := getJSON(t, c.URL()+"/v1/pages")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pages: %d %s", resp.StatusCode, body)
		}
		if resp.Header.Get(cluster.WorkerHeader) == "" {
			t.Fatal("proxied pages response without worker attribution")
		}
		var pages struct {
			Pages []string `json:"pages"`
		}
		if err := json.Unmarshal(body, &pages); err != nil || len(pages.Pages) == 0 {
			t.Fatalf("pages body: %v (%s)", err, body)
		}

		resp, body = getJSON(t, c.URL()+"/v1/cluster")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster: %d %s", resp.StatusCode, body)
		}
		var snap struct {
			Fingerprint string `json:"fingerprint"`
			Transport   string `json:"transport"`
			Members     []struct {
				Name  string `json:"name"`
				State string `json:"state"`
			} `json:"members"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("cluster body: %v (%s)", err, body)
		}
		if snap.Fingerprint != sim.ConfigFingerprint(soc.NexusFive()) {
			t.Fatalf("cluster fingerprint = %q, want pinned device fingerprint", snap.Fingerprint)
		}
		if snap.Transport != transport {
			t.Fatalf("cluster transport = %q, want %q", snap.Transport, transport)
		}
		if len(snap.Members) != 2 || snap.Members[0].Name != "w0" || snap.Members[0].State != "alive" {
			t.Fatalf("cluster members unexpected: %s", body)
		}

		if resp, body := getJSON(t, c.URL()+"/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway healthz: %d %s", resp.StatusCode, body)
		}
		if resp, body := getJSON(t, c.URL()+"/metrics"); resp.StatusCode != http.StatusOK ||
			!bytes.Contains(body, []byte("dora_gate_requests_total")) {
			t.Fatalf("gateway metrics: %d %s", resp.StatusCode, body)
		}
	})
}
