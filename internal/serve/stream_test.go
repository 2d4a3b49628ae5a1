package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/obslog"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/wire"
)

// withCache equips a test config with a real (temp-file) run cache so
// repeats produce "cache" provenance instead of resimulating.
func withCache(t *testing.T, cfg Config) Config {
	t.Helper()
	c, err := runcache.Open(filepath.Join(t.TempDir(), "cache.json"))
	if err != nil {
		t.Fatalf("runcache.Open: %v", err)
	}
	cfg.Cache = c
	return cfg
}

// dialStream opens a wire client against a test server.
func dialStream(t *testing.T, ts *httptest.Server, opts wire.Options) *wire.Client {
	t.Helper()
	c, err := wire.Dial(context.Background(), ts.URL, opts)
	if err != nil {
		t.Fatalf("wire.Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStreamLoadByteIdentity: the payload a stream Load returns is the
// exact byte sequence the JSON endpoint writes for the same request —
// the compat guarantee that lets clients migrate transports without
// reparsing anything.
func TestStreamLoadByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real simulation")
	}
	_, ts := newTestServer(t, withCache(t, Config{}), nil)
	resp, jsonBody := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON load: %d %s", resp.StatusCode, jsonBody)
	}

	c := dialStream(t, ts, wire.Options{})
	payload, source, err := c.Load(context.Background(), &wire.LoadRequest{Page: "Alipay", Seed: 5})
	if err != nil {
		t.Fatalf("stream load: %v", err)
	}
	if string(payload) != string(jsonBody) {
		t.Fatalf("stream payload differs from JSON endpoint body:\nstream %s\njson   %s", payload, jsonBody)
	}
	// The repeat was answered without resimulating; provenance rides
	// the frame flags instead of a header.
	if source != "dedup" && source != "cache" {
		t.Fatalf("stream repeat source = %q, want dedup or cache", source)
	}
}

// TestStreamCampaignByteIdentity: campaign cells streamed individually
// reassemble into the exact JSON response body, the incremental cell
// indices cover the grid, and the end-of-campaign aggregate source
// matches the JSON path's X-Dora-Source.
func TestStreamCampaignByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real simulations")
	}
	_, ts := newTestServer(t, withCache(t, Config{}), nil)
	body := `{"pages":["Alipay","Reddit"],"governors":["interactive","ondemand"],"seed":3}`
	resp, jsonBody := postJSON(t, ts.URL+"/v1/campaign", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON campaign: %d %s", resp.StatusCode, jsonBody)
	}

	c := dialStream(t, ts, wire.Options{})
	cells := map[int]string{}
	var mu sync.Mutex
	summary, source, err := c.Campaign(context.Background(), &wire.CampaignRequest{
		Pages:     []string{"Alipay", "Reddit"},
		Governors: []string{"interactive", "ondemand"},
		Seed:      3,
	}, func(i int, cell []byte, cellSource string) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := cells[i]; dup {
			t.Errorf("cell %d delivered twice", i)
		}
		if cellSource == "" {
			t.Errorf("cell %d carries no source", i)
		}
		cells[i] = string(cell)
	})
	if err != nil {
		t.Fatalf("stream campaign: %v", err)
	}
	if summary.Cells != 4 || summary.Errored != 0 {
		t.Fatalf("summary = %+v, want 4 cells, 0 errored", summary)
	}
	if len(cells) != 4 {
		t.Fatalf("received %d cells, want 4", len(cells))
	}
	// Reassemble in grid order: must reproduce the JSON body byte for
	// byte (WriteJSON's json.Encoder appends a newline).
	parts := make([]string, 4)
	for i := range parts {
		parts[i] = cells[i]
	}
	reassembled := `{"cells":[` + strings.Join(parts, ",") + "]}\n"
	if reassembled != string(jsonBody) {
		t.Fatalf("reassembled stream cells differ from JSON body:\nstream %s\njson   %s", reassembled, jsonBody)
	}
	// Every cell was a repeat of the JSON campaign, so the aggregate
	// provenance is uniform.
	if source != "cache" && source != "dedup" && source != "mixed" {
		t.Fatalf("aggregate source = %q, want a repeat provenance", source)
	}
}

// TestStreamPipeliningOutOfOrder: a request issued *after* a slow one
// on the same connection completes *before* it — the head-of-line
// unblocking that request pipelining with completion ids buys.
func TestStreamPipeliningOutOfOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real simulation")
	}
	var gate atomic.Bool
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	_, ts := newTestServer(t, withCache(t, Config{Concurrency: 2}), func(s *Server) {
		s.testBeforeSim = func(string) {
			if !gate.Load() {
				return // warm-up traffic passes straight through
			}
			entered <- struct{}{}
			<-hold
		}
	})
	// Warm one key through the JSON path so its repeats answer from
	// cache without touching the sim hook.
	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, body)
	}
	gate.Store(true)

	c := dialStream(t, ts, wire.Options{})
	slowDone := make(chan string, 1)
	go func() {
		_, source, err := c.Load(context.Background(), &wire.LoadRequest{Page: "Reddit", Seed: 1})
		if err != nil {
			slowDone <- "error: " + err.Error()
			return
		}
		slowDone <- source
	}()
	<-entered // the fresh request is now parked inside the simulator

	// Issued second, completes first: answered from cache while the
	// fresh request is still simulating on the same connection.
	_, fastSource, err := c.Load(context.Background(), &wire.LoadRequest{Page: "Alipay", Seed: 9})
	if err != nil {
		t.Fatalf("pipelined cache load: %v", err)
	}
	if fastSource != "cache" {
		t.Fatalf("pipelined load source = %q, want cache", fastSource)
	}
	select {
	case got := <-slowDone:
		t.Fatalf("slow request completed before release: %v", got)
	default:
	}
	close(hold)
	if got := <-slowDone; got != "sim" {
		t.Fatalf("slow request source = %q, want sim", got)
	}
}

// TestStreamCrossTransportDedup: a stream request for a key currently
// simulating on behalf of a JSON request joins the same flight — the
// two transports share one dedup/cache/admission path.
func TestStreamCrossTransportDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real simulation")
	}
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	_, ts := newTestServer(t, Config{Concurrency: 2}, func(s *Server) {
		s.testBeforeSim = func(string) {
			entered <- struct{}{}
			<-hold
		}
	})
	jsonDone := make(chan string, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"IMDB","seed":4}`)
		if resp.StatusCode != http.StatusOK {
			jsonDone <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			return
		}
		jsonDone <- resp.Header.Get("X-Dora-Source")
	}()
	<-entered // JSON leader is inside the simulator

	c := dialStream(t, ts, wire.Options{})
	streamDone := make(chan string, 1)
	go func() {
		_, source, err := c.Load(context.Background(), &wire.LoadRequest{Page: "IMDB", Seed: 4})
		if err != nil {
			streamDone <- "error: " + err.Error()
			return
		}
		streamDone <- source
	}()
	// The joiner blocks on the leader; give it a moment to register,
	// then release the simulation.
	time.Sleep(50 * time.Millisecond)
	close(hold)

	if got := <-jsonDone; got != "sim" {
		t.Fatalf("JSON leader source = %q, want sim", got)
	}
	if got := <-streamDone; got != "dedup" && got != "cache" {
		t.Fatalf("stream joiner source = %q, want dedup (or cache if it lost the race)", got)
	}
}

// TestStreamCompressionNegotiated: with Compress on, results still
// decode to the identical bytes and the server actually sent
// compressed frames (metrics counter moves).
func TestStreamCompressionNegotiated(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real simulations")
	}
	_, ts := newTestServer(t, withCache(t, Config{}), nil)
	resp, jsonBody := postJSON(t, ts.URL+"/v1/load", `{"page":"Twitter","seed":6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON load: %d %s", resp.StatusCode, jsonBody)
	}

	c := dialStream(t, ts, wire.Options{Compress: true})
	payload, _, err := c.Load(context.Background(), &wire.LoadRequest{Page: "Twitter", Seed: 6})
	if err != nil {
		t.Fatalf("compressed stream load: %v", err)
	}
	if string(payload) != string(jsonBody) {
		t.Fatalf("compressed payload differs from JSON body:\nstream %s\njson   %s", payload, jsonBody)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	var compressed uint64
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "dora_stream_compressed_frames_total ") {
			fmt.Sscanf(line, "dora_stream_compressed_frames_total %d", &compressed)
		}
	}
	if compressed == 0 {
		t.Fatal("dora_stream_compressed_frames_total = 0: compression negotiated but never applied")
	}
}

// rawHandshake performs the upgrade by hand and returns the hijacked
// conn, for tests that need a client the wire package would refuse to
// be (stalled, hostile, half-written).
func rawHandshake(t *testing.T, ts *httptest.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	req := "GET " + wire.StreamPath + " HTTP/1.1\r\n" +
		"Host: dorad\r\n" +
		"Connection: Upgrade\r\n" +
		"Upgrade: " + wire.UpgradeProtocol + "\r\n" +
		wire.VersionHeader + ": " + strconv.Itoa(wire.ProtoVersion) + "\r\n" +
		wire.SchemaHeader + ": " + strconv.Itoa(runcache.SchemaVersion) + "\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("handshake read: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("handshake status = %d, want 101", resp.StatusCode)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestStreamVersionSkewRefused: wire-protocol or schema-version skew
// is refused with 426 + code "wire_version" before any hijack.
func TestStreamVersionSkewRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	cases := []struct {
		name           string
		wireV, schemaV string
	}{
		{"wire protocol skew", "99", strconv.Itoa(runcache.SchemaVersion)},
		{"result schema skew", strconv.Itoa(wire.ProtoVersion), "99"},
		{"missing versions", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+wire.StreamPath, nil)
			req.Header.Set("Upgrade", wire.UpgradeProtocol)
			req.Header.Set("Connection", "Upgrade")
			if tc.wireV != "" {
				req.Header.Set(wire.VersionHeader, tc.wireV)
			}
			if tc.schemaV != "" {
				req.Header.Set(wire.SchemaHeader, tc.schemaV)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusUpgradeRequired {
				t.Fatalf("status = %d, want 426", resp.StatusCode)
			}
			if code := resp.Header.Get(ErrorCodeHeader); code != CodeWireVersion {
				t.Fatalf("error code = %q, want %q", code, CodeWireVersion)
			}
		})
	}
	// And the wire client surfaces the refusal as a structured error.
	t.Run("client surfaces refusal", func(t *testing.T) {
		// A second server whose handler rewrites the version header to
		// simulate a futuristic client against today's daemon.
		skew := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Set(wire.VersionHeader, "99")
			ts.Config.Handler.ServeHTTP(w, r)
		}))
		defer skew.Close()
		_, err := wire.Dial(context.Background(), skew.URL, wire.Options{})
		var werr *wire.Error
		if err == nil || !asWireError(err, &werr) || werr.Status != http.StatusUpgradeRequired || werr.Code != CodeWireVersion {
			t.Fatalf("Dial against skewed server = %v, want *wire.Error{426, wire_version}", err)
		}
	})
}

func asWireError(err error, target **wire.Error) bool {
	e, ok := err.(*wire.Error)
	if ok {
		*target = e
	}
	return ok
}

// TestStreamOversizedFrameRejected: a frame whose length prefix
// exceeds the server's budget kills the connection instead of
// allocating.
func TestStreamOversizedFrameRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxFrameBytes: 1 << 10}, nil)
	conn := rawHandshake(t, ts)
	var hdr [wire.HeaderSize]byte
	f := wire.Frame{Len: 1 << 20, Type: wire.TypeLoad, ID: 1}
	wire.PutHeader(hdr[:], &f)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // connection torn down, as required
		}
	}
}

// TestStreamDrainGoodbye: BeginDrain announces Goodbye on live stream
// connections; clients refuse new submissions locally and Drain
// completes once in-flight requests finish.
func TestStreamDrainGoodbye(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	c := dialStream(t, ts, wire.Options{})
	s.BeginDrain()

	deadline := time.Now().Add(5 * time.Second)
	for !c.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("client never observed the Goodbye frame")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := c.Load(context.Background(), &wire.LoadRequest{Page: "Alipay"}); err == nil {
		t.Fatal("Load after Goodbye succeeded, want refusal")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with idle stream conn: %v", err)
	}
	// New stream connections are refused at the handshake while
	// draining.
	if _, err := wire.Dial(context.Background(), ts.URL, wire.Options{}); err == nil {
		t.Fatal("Dial against draining server succeeded, want 503 refusal")
	}
}

// TestStreamDisconnectDrainRace: a client disconnect (reader teardown)
// racing BeginDrain's goodbye must never crash the daemon — the writer
// queue is shut down by a sentinel, not a channel close, precisely so
// goodbye's concurrent enqueue cannot hit a closed channel and panic.
// Iterated to give the race a window; run under -race in CI.
func TestStreamDisconnectDrainRace(t *testing.T) {
	for i := 0; i < 30; i++ {
		s := NewServer(Config{})
		ts := httptest.NewServer(s.Handler())
		conn := rawHandshake(t, ts)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); conn.Close() }()
		go func() { defer wg.Done(); s.BeginDrain() }()
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("iteration %d: drain after disconnect race: %v", i, err)
		}
		cancel()
		ts.Close()
	}
}

// TestStreamStalledConnCannotHoldDrain is the listener-hardening
// regression test: connections that stall mid-frame, or never read
// their side of the stream, must not hold a graceful drain open.
func TestStreamStalledConnCannotHoldDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{StreamWriteTimeout: 200 * time.Millisecond}, nil)
	// Conn 1: handshakes and goes silent without ever reading.
	_ = rawHandshake(t, ts)
	// Conn 2: stalls halfway through a frame header.
	half := rawHandshake(t, ts)
	var hdr [wire.HeaderSize]byte
	f := wire.Frame{Len: 64, Type: wire.TypeLoad, ID: 7}
	wire.PutHeader(hdr[:], &f)
	if _, err := half.Write(hdr[:8]); err != nil {
		t.Fatalf("half write: %v", err)
	}

	start := time.Now()
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain held open by stalled connections: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("drain took %v with stalled conns, want prompt completion", elapsed)
	}
}

// TestStreamIdleConnReaped: a connection that stops mid-frame is cut
// by the stream idle deadline even without a drain.
func TestStreamIdleConnReaped(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamIdleTimeout: 100 * time.Millisecond}, nil)
	conn := rawHandshake(t, ts)
	if _, err := conn.Write([]byte{0, 0, 0, 8}); err != nil { // 4 of 16 header bytes
		t.Fatalf("partial write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("idle connection was not reaped within 5s")
			}
			return // server closed it: reaped
		}
	}
}

// TestServeCampaignFingerprintGoldenStream replays the golden
// fingerprint campaign through the stream transport — each cell as a
// single-cell campaign grid — at two worker counts and across both
// device configurations, proving the binary transport is
// observable-preserving exactly like the JSON path.
func TestServeCampaignFingerprintGoldenStream(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short")
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clients := map[string]*wire.Client{}
			for _, cfg := range []soc.Config{defaultDevice(), lruDevice()} {
				_, ts := newTestServer(t, Config{Device: cfg, Workers: workers}, nil)
				clients[sim.ConfigFingerprint(cfg)] = dialStream(t, ts, wire.Options{})
			}
			got, err := sim.CampaignFingerprintVia(1, func(cfg soc.Config, page, kern string, seed int64) (sim.Result, error) {
				c := clients[sim.ConfigFingerprint(cfg)]
				if c == nil {
					return sim.Result{}, fmt.Errorf("no client for config %s", sim.ConfigFingerprint(cfg))
				}
				req := &wire.CampaignRequest{Pages: []string{page}, Seed: seed}
				if kern != "" {
					req.CoRunners = []string{kern}
				}
				var cellBytes []byte
				summary, _, err := c.Campaign(context.Background(), req, func(_ int, cell []byte, _ string) {
					cellBytes = append([]byte(nil), cell...)
				})
				if err != nil {
					return sim.Result{}, err
				}
				if summary.Cells != 1 || summary.Errored != 0 {
					return sim.Result{}, fmt.Errorf("summary %+v, want one clean cell", summary)
				}
				var cell CampaignCell
				if err := json.Unmarshal(cellBytes, &cell); err != nil {
					return sim.Result{}, err
				}
				if cell.Error != nil {
					return sim.Result{}, fmt.Errorf("cell error: %v", cell.Error)
				}
				var r sim.Result
				if err := json.Unmarshal(cell.Result, &r); err != nil {
					return sim.Result{}, err
				}
				return r, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != goldenCampaignFingerprint {
				t.Fatalf("stream-path campaign fingerprint drifted at workers=%d:\n got  %s\n want %s\nthe stream transport is no longer observable-preserving", workers, got, goldenCampaignFingerprint)
			}
		})
	}
}

// accessKeys returns the keys of a key=value access line from rid up
// to bytes, in order.
func accessKeys(line string) []string {
	var keys []string
	for _, tok := range strings.Fields(line) {
		k, _, ok := strings.Cut(tok, "=")
		if !ok || (len(keys) == 0 && k != "rid") {
			continue
		}
		keys = append(keys, k)
		if k == "bytes" {
			break
		}
	}
	return keys
}

// TestStreamAccessLineMatchesJSON: a load sent over /v1/stream leaves
// the same access line, field for field and in the same order, as the
// same load sent as JSON, and is counted in the stream endpoint's
// metrics and in dora_serve_request_seconds like any other request.
func TestStreamAccessLineMatchesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real simulations")
	}
	logBuf := &syncBuffer{}
	s, ts := newTestServer(t, Config{Log: obslog.New(logBuf, obslog.Options{})}, nil)
	resp, body := postJSON(t, ts.URL+"/v1/load", `{"page":"Alipay","seed":43}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON load: %d %s", resp.StatusCode, body)
	}
	c := dialStream(t, ts, wire.Options{})
	payload, _, err := c.Load(context.Background(), &wire.LoadRequest{Page: "Alipay", Seed: 43})
	if err != nil {
		t.Fatalf("stream load: %v", err)
	}
	if string(payload) != string(body) {
		t.Fatal("stream payload differs from JSON body")
	}
	// The result frame can reach the client before the handler has
	// written its access line; Drain returns only after every admitted
	// request has finished, access line included.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	jsonLine, streamLine := logBuf.accessLine("endpoint=load"), logBuf.accessLine("endpoint=stream")
	if jsonLine == "" || streamLine == "" {
		t.Fatalf("missing access lines:\n%s", logBuf.String())
	}
	want := []string{"rid", "method", "path", "endpoint", "status", "outcome", "source", "fidelity",
		"queue_wait_ms", "sim_ms", "total_ms", "bytes"}
	for _, line := range []string{jsonLine, streamLine} {
		if got := accessKeys(line); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("access line keys = %v, want %v\n%s", got, want, line)
		}
	}
	for _, field := range []string{"method=STREAM", "path=/v1/load", "status=200", "outcome=ok",
		"source=sim", "fidelity=exact", fmt.Sprintf("bytes=%d", len(payload))} {
		if !strings.Contains(streamLine, field) {
			t.Errorf("stream access line missing %q: %s", field, streamLine)
		}
	}
	if simMs := extractFloat(t, streamLine, "sim_ms"); simMs <= 0 {
		t.Errorf("stream sim_ms = %g, want > 0", simMs)
	}

	m := s.obs.endpoints["stream"]
	if m.reqs.Value() != 1 || m.latency.Count() != 1 || m.status[0].Value() != 1 {
		t.Errorf("dora_http_stream_*: requests %d, latency count %d, 2xx %d; want 1 each",
			m.reqs.Value(), m.latency.Count(), m.status[0].Value())
	}
	if got := s.hLatency.Count(); got != 2 {
		t.Errorf("dora_serve_request_seconds count = %d, want 2 (one JSON, one stream)", got)
	}
}
