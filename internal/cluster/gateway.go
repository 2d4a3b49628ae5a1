package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"dora/internal/clock"
	"dora/internal/obslog"
	"dora/internal/runcache"
	"dora/internal/serve"
	"dora/internal/telemetry"
	"dora/internal/wire"
)

// CodeNoWorkers is the gateway-originated error code for a request
// that exhausted every live worker (or found none): 503 + Retry-After,
// the cluster-level analogue of a single node's drain refusal.
const CodeNoWorkers = "no_live_workers"

// WorkerHeader names the worker that produced a proxied response.
const WorkerHeader = "X-Dora-Worker"

// AttemptsHeader counts the forward attempts (1 = no re-route) behind
// a proxied response.
const AttemptsHeader = "X-Dora-Attempts"

// Transport names for Config.Transport.
const (
	TransportJSON   = "json"
	TransportStream = "stream"
)

// Config configures a Gateway.
type Config struct {
	// Members is the static worker list (required, non-empty).
	Members []Member
	// Transport selects how requests are forwarded to workers:
	// TransportStream (default) pipelines over one long-lived
	// internal/wire connection per worker; TransportJSON posts to each
	// worker's /v1/load. The stream dials plain http:// only, so
	// workers behind https, or behind a proxy that cannot pass an
	// Upgrade, need TransportJSON.
	Transport string
	// Fingerprint is the device fingerprint every worker must report
	// on /healthz (sim.ConfigFingerprint of the cluster's device). It
	// prefixes every routing key. Empty = adopt the first fingerprint
	// a probe reports; a worker reporting a different one is treated
	// as failing its probes (it would serve a different device).
	Fingerprint string
	// FailThreshold evicts a worker after this many consecutive failed
	// probes or transport-level forwarding errors (default 3).
	FailThreshold int
	// ProbeInterval is the cadence of the Run probe loop (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each member's /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// ForwardTimeout bounds each forward attempt to one worker (0 =
	// only the request's own deadline applies). Keep it above the
	// longest expected simulation; it exists so a hung worker turns
	// into a re-route, not a hung client.
	ForwardTimeout time.Duration
	// Fanout bounds how many campaign cells are forwarded concurrently
	// (0 = pool.DefaultSize()).
	Fanout int
	// DefaultFidelity fills requests that omit the field, exactly like
	// a single dorad's -fidelity flag; it must match the workers' so
	// canonicalized keys agree.
	DefaultFidelity string
	// MaxBodyBytes bounds inbound request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the advisory backoff on 429/503 (default 1s).
	RetryAfter time.Duration
	// HTTPClient forwards JSON requests and probes (nil = a dedicated
	// client with sane connection pooling).
	HTTPClient *http.Client
	// Metrics receives gateway metrics (nil = fresh registry, exposed
	// at GET /metrics).
	Metrics *telemetry.Registry
	// Log receives structured gateway logs; module "gate" for
	// lifecycle and membership, "access" one line per request. nil
	// discards everything.
	Log *obslog.Logger
	// Clock supplies membership timestamps (nil = wall clock).
	Clock clock.Clock
	// Mono is the latency clock (nil = clock.Mono).
	Mono clock.MonoClock
}

// Gateway is the stateless cluster front end: it owns no simulation
// state at all — every runcache entry and singleflight lives on the
// worker that HRW placement sends the key to, so gateways scale
// horizontally and restart freely.
type Gateway struct {
	cfg    Config
	ms     *Membership
	prober *Prober
	client *http.Client
	reg    *telemetry.Registry
	log    *obslog.Logger
	alog   *obslog.Logger
	mono   clock.MonoClock

	retryAfterSecs int // Retry-After on 429/503, cfg.RetryAfter in whole seconds

	// maxWorkerBody bounds a worker's response on both transports and
	// the pages proxy: wire.DefaultMaxFrameBytes (tests lower it). A
	// longer body or frame is a failed forward, never a truncated
	// answer.
	maxWorkerBody int64

	fpMu sync.Mutex
	fp   string

	scMu          sync.Mutex
	streamClients map[string]*wire.Client

	mRequests   *telemetry.Counter
	mForwards   *telemetry.Counter
	mReroutes   *telemetry.Counter
	mFwdErrors  *telemetry.Counter
	mNoWorkers  *telemetry.Counter
	mCells      *telemetry.Counter
	mEvictions  *telemetry.Counter
	mRejoins    *telemetry.Counter
	mMismatches *telemetry.Counter
	gLive       *telemetry.Gauge
	hLatency    *telemetry.Histogram
}

// NewGateway builds a gateway over cfg.Members. It probes nothing by
// itself: call ProbeOnce (tests) or Run (production) to start refining
// membership.
func NewGateway(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: gateway needs at least one worker (-workers)")
	}
	switch cfg.Transport {
	case "":
		cfg.Transport = TransportStream
	case TransportJSON, TransportStream:
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q (json|stream)", cfg.Transport)
	}
	if cfg.Transport == TransportStream {
		for _, m := range cfg.Members {
			if u, err := url.Parse(m.URL); err != nil || u.Scheme != "http" {
				return nil, fmt.Errorf("cluster: worker %q: the stream transport dials plain http:// only; use -transport json", m.URL)
			}
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	g := &Gateway{
		cfg:           cfg,
		client:        client,
		reg:           reg,
		log:           cfg.Log.Module("gate"),
		alog:          cfg.Log.Module("access"),
		mono:          clock.MonoOr(cfg.Mono),
		fp:            cfg.Fingerprint,
		streamClients: make(map[string]*wire.Client),

		retryAfterSecs: int(cfg.RetryAfter.Round(time.Second) / time.Second),
		maxWorkerBody:  wire.DefaultMaxFrameBytes,

		mRequests:   reg.Counter("dora_gate_requests_total", "requests received by the gateway (load + campaign)"),
		mForwards:   reg.Counter("dora_gate_forwards_total", "forward attempts to workers"),
		mReroutes:   reg.Counter("dora_gate_reroutes_total", "requests or cells re-routed to another worker after a failure"),
		mFwdErrors:  reg.Counter("dora_gate_forward_errors_total", "transport-level forward failures"),
		mNoWorkers:  reg.Counter("dora_gate_no_workers_total", "requests refused 503 because no live worker could answer"),
		mCells:      reg.Counter("dora_gate_campaign_cells_total", "campaign grid cells fanned out across the cluster"),
		mEvictions:  reg.Counter("dora_gate_evictions_total", "workers evicted from placement"),
		mRejoins:    reg.Counter("dora_gate_rejoins_total", "workers rejoined into placement"),
		mMismatches: reg.Counter("dora_gate_fingerprint_mismatch_total", "probes reporting a conflicting device fingerprint"),
		gLive:       reg.Gauge("dora_gate_workers_live", "workers currently eligible for placement"),
		hLatency:    reg.Histogram("dora_gate_request_seconds", "gateway request latency (seconds)", telemetry.ExponentialBuckets(0.001, 2, 14)),
	}
	g.ms = NewMembership(cfg.Members, cfg.FailThreshold, cfg.Clock, g.onTransition)
	g.gLive.Set(float64(len(g.ms.Live())))
	g.prober = NewProber(g.ms, client, cfg.ProbeTimeout, g.fingerprint, g.onMismatch)
	return g, nil
}

// fingerprint returns the cluster device fingerprint routing keys are
// derived under ("" until configured or learned).
func (g *Gateway) fingerprint() string {
	g.fpMu.Lock()
	defer g.fpMu.Unlock()
	return g.fp
}

// adoptFingerprint records the first probed fingerprint when the
// config left it open.
func (g *Gateway) adoptFingerprint(fp string) {
	if fp == "" {
		return
	}
	g.fpMu.Lock()
	if g.fp == "" {
		g.fp = fp
	}
	g.fpMu.Unlock()
}

func (g *Gateway) onMismatch(name, got, want string) {
	g.mMismatches.Inc()
	g.log.Warn().Str("worker", name).Str("got", got).Str("want", want).Msg("device fingerprint mismatch")
}

// onTransition is the membership change hook: metrics + one log line
// per join/leave, and the live-worker gauge.
func (g *Gateway) onTransition(tr Transition) {
	switch {
	case tr.To == StateDead:
		g.mEvictions.Inc()
	case tr.From == StateDead || tr.From == StateDraining:
		if tr.To == StateAlive {
			g.mRejoins.Inc()
		}
	}
	g.gLive.Set(float64(len(g.ms.Live())))
	g.log.Info().Str("worker", tr.Name).Str("from", tr.From.String()).Str("to", tr.To.String()).Msg("membership change")
}

// ProbeOnce runs one probe round over every member (the harness's
// manual clock tick; Run calls it on a ticker). Fingerprint adoption
// happens here so routing keys pick up the cluster identity as soon
// as any worker has answered.
func (g *Gateway) ProbeOnce(ctx context.Context) {
	g.prober.ProbeOnce(ctx)
	if g.fingerprint() == "" {
		for _, st := range g.ms.Snapshot() {
			if st.Fingerprint != "" {
				g.adoptFingerprint(st.Fingerprint)
				break
			}
		}
	}
	g.gLive.Set(float64(len(g.ms.Live())))
}

// Run probes on the configured interval until ctx is cancelled —
// doragate's background membership loop.
func (g *Gateway) Run(ctx context.Context) {
	g.ProbeOnce(ctx)
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.ProbeOnce(ctx)
		}
	}
}

// Close tears down the gateway's worker connections (stream
// transport); pending calls on them fail over at the caller.
func (g *Gateway) Close() {
	g.scMu.Lock()
	names := make([]string, 0, len(g.streamClients))
	for name := range g.streamClients {
		names = append(names, name)
	}
	sort.Strings(names)
	clients := make([]*wire.Client, 0, len(names))
	for _, name := range names {
		clients = append(clients, g.streamClients[name])
	}
	g.streamClients = make(map[string]*wire.Client)
	g.scMu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// Handler returns the gateway's route table.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/load", g.handleLoad)
	mux.HandleFunc("/v1/campaign", g.handleCampaign)
	mux.HandleFunc("/v1/pages", g.handlePages)
	mux.HandleFunc("/v1/cluster", g.handleCluster)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.Handle("/metrics", g.reg.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, &serve.APIError{Status: http.StatusNotFound, Code: serve.CodeNotFound,
			Message: fmt.Sprintf("no route %s %s", r.Method, r.URL.Path)}, g.retryAfterSecs)
	})
	return mux
}

// --- routing + forwarding --------------------------------------------

// routeKey derives the placement key for a canonicalized load
// request: cluster device fingerprint + every field that reaches the
// simulator. TimeoutMs is excluded — it shapes request processing,
// not the simulation, and two retries of the same work with different
// budgets should land on the same worker's cache.
func (g *Gateway) routeKey(req serve.LoadRequest) string {
	req.TimeoutMs = 0
	return runcache.Key("gate-route", g.fingerprint(), req)
}

// forwarded is one worker's answer to a proxied load.
type forwarded struct {
	status   int
	body     []byte
	source   string
	fidelity string
	worker   string
	attempts int
}

// executeLoad routes req by its key and forwards it, re-routing to
// the next-ranked live worker on transport errors and retryable
// statuses (500/502/503/429). Deterministic request-level refusals
// (4xx, 504) pass through unchanged; exhausting every live worker
// yields the 503 CodeNoWorkers refusal.
func (g *Gateway) executeLoad(ctx context.Context, req serve.LoadRequest) (forwarded, *serve.APIError) {
	key := g.routeKey(req)
	rank := Rank(key, g.ms.Live())
	if len(rank) == 0 {
		g.mNoWorkers.Inc()
		return forwarded{}, g.noWorkersErr()
	}
	var lastErr *serve.APIError
	attempts := 0
	for _, name := range rank {
		if ctx.Err() != nil {
			return forwarded{}, serve.CtxErrToAPI(ctx)
		}
		attempts++
		if attempts > 1 {
			g.mReroutes.Inc()
		}
		g.mForwards.Inc()
		fwd, apiErr, retryable := g.forwardOnce(ctx, name, req)
		if apiErr == nil {
			fwd.worker = name
			fwd.attempts = attempts
			return fwd, nil
		}
		if !retryable {
			return forwarded{worker: name, attempts: attempts}, apiErr
		}
		lastErr = apiErr
	}
	// Every live worker refused retryably (draining, shedding, or
	// mid-failure): the cluster has no capacity for this key right now.
	g.mNoWorkers.Inc()
	if lastErr != nil && lastErr.Code == serve.CodeDraining {
		return forwarded{}, &serve.APIError{Status: http.StatusServiceUnavailable, Code: CodeNoWorkers,
			Message: "every live worker is draining; retry shortly"}
	}
	return forwarded{}, g.noWorkersErr()
}

func (g *Gateway) noWorkersErr() *serve.APIError {
	return &serve.APIError{Status: http.StatusServiceUnavailable, Code: CodeNoWorkers,
		Message: "no live workers (all drained, evicted, or failing); retry shortly"}
}

// retryableStatus reports whether a worker's HTTP status should send
// the request to the next-ranked worker: transient capacity or
// failure states, never deterministic request refusals.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return true
	}
	return false
}

// forwardOnce forwards req to one worker over the configured
// transport. retryable reports whether a failure should re-route.
func (g *Gateway) forwardOnce(parent context.Context, name string, req serve.LoadRequest) (forwarded, *serve.APIError, bool) {
	ctx := parent
	if g.cfg.ForwardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, g.cfg.ForwardTimeout)
		defer cancel()
	}
	if g.cfg.Transport == TransportStream {
		return g.forwardStream(parent, ctx, name, req)
	}
	return g.forwardJSON(ctx, name, req)
}

// forwardJSON posts the canonicalized request to the worker's
// /v1/load. The worker re-canonicalizes to the same values, so its
// cache and dedup keys match any other route the key could take.
func (g *Gateway) forwardJSON(ctx context.Context, name string, req serve.LoadRequest) (forwarded, *serve.APIError, bool) {
	url, ok := g.ms.URL(name)
	if !ok {
		return forwarded{}, g.noWorkersErr(), true
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return forwarded{}, &serve.APIError{Status: http.StatusInternalServerError, Code: serve.CodeInternal, Message: "encode forward: " + err.Error()}, false
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/load", bytes.NewReader(payload))
	if err != nil {
		return forwarded{}, &serve.APIError{Status: http.StatusInternalServerError, Code: serve.CodeInternal, Message: err.Error()}, false
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hreq)
	if err != nil {
		return g.transportFailure(ctx, name, err)
	}
	body, err := g.readWorkerBody(resp)
	if errors.Is(err, errWorkerBodyTooLarge) {
		return g.unstructuredFailure()
	}
	if err != nil {
		return g.transportFailure(ctx, name, err)
	}
	if resp.StatusCode == http.StatusOK {
		return forwarded{
			status:   resp.StatusCode,
			body:     body,
			source:   resp.Header.Get(serve.SourceHeader),
			fidelity: resp.Header.Get(serve.FidelityHeader),
		}, nil, false
	}
	apiErr, decoded := serve.DecodeErrorBody(resp.StatusCode, body)
	if !decoded {
		// Not dorad's envelope (a proxy in the way, a fault burst).
		return g.unstructuredFailure()
	}
	return forwarded{}, apiErr, retryableStatus(resp.StatusCode)
}

// errWorkerBodyTooLarge marks a worker response longer than
// maxWorkerBody.
var errWorkerBodyTooLarge = errors.New("cluster: worker response body over limit")

// readWorkerBody reads and closes a worker's response body. It reads
// one byte past maxWorkerBody, so an over-limit body is reported as
// errWorkerBodyTooLarge instead of being cut short.
func (g *Gateway) readWorkerBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, g.maxWorkerBody+1))
	if err == nil && int64(len(body)) > g.maxWorkerBody {
		return nil, errWorkerBodyTooLarge
	}
	return body, err
}

// unstructuredFailure answers a worker response the gateway cannot
// trust (not dorad's error envelope, or over the body limit): a 502
// that always re-routes.
func (g *Gateway) unstructuredFailure() (forwarded, *serve.APIError, bool) {
	g.mFwdErrors.Inc()
	return forwarded{}, &serve.APIError{Status: http.StatusBadGateway, Code: serve.CodeInternal,
		Message: "worker returned an unstructured error"}, true
}

// transportFailure classifies a connection-level forward error:
// report it into membership (fast eviction under sustained failure)
// unless it was our own context expiring.
func (g *Gateway) transportFailure(ctx context.Context, name string, err error) (forwarded, *serve.APIError, bool) {
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		return forwarded{}, serve.CtxErrToAPI(ctx), false
	}
	g.mFwdErrors.Inc()
	g.ms.ReportFailure(name)
	retryable := true
	if ctx.Err() != nil && g.cfg.ForwardTimeout == 0 {
		// The request's own deadline expired (no per-attempt budget):
		// re-routing cannot help.
		retryable = false
	}
	return forwarded{}, &serve.APIError{Status: http.StatusBadGateway, Code: serve.CodeInternal,
		Message: "forward to worker failed: " + err.Error()}, retryable
}

// forwardStream forwards over the worker's long-lived wire connection,
// dialing (or redialing) on demand. ctx is the attempt's context,
// parent the request's.
func (g *Gateway) forwardStream(parent, ctx context.Context, name string, req serve.LoadRequest) (forwarded, *serve.APIError, bool) {
	c, err := g.streamClient(ctx, name)
	if err != nil {
		var werr *wire.Error
		if errors.As(err, &werr) && retryableStatus(werr.Status) {
			// The worker refused the upgrade with its error envelope
			// (draining, shedding): re-route without failure accounting,
			// as the JSON path does for the same answer.
			return forwarded{}, werr, true
		}
		return g.transportFailure(ctx, name, err)
	}
	payload, source, err := c.Load(ctx, &req)
	if err == nil {
		return forwarded{status: http.StatusOK, body: payload, source: source, fidelity: req.Fidelity}, nil, false
	}
	var werr *wire.Error
	if errors.As(err, &werr) {
		return forwarded{}, werr, retryableStatus(werr.Status)
	}
	if errors.Is(err, wire.ErrDraining) {
		// The worker said goodbye: leave placement now, let probes
		// rejoin it if it comes back. The client is forgotten, not
		// closed: the calls already in flight on it finish there, and
		// the connection closes when the worker hangs up.
		g.forgetStreamClient(name, c)
		g.ms.ReportDraining(name, "")
		return forwarded{}, &serve.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeDraining, Message: "worker is draining"}, true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Only this call was abandoned (the client deregistered it); the
		// connection and every other call in flight on it carry on.
		if parent.Err() != nil {
			return forwarded{}, serve.CtxErrToAPI(parent), false
		}
		// The per-attempt budget expired: the worker is hung or slow —
		// count it against the member and re-route.
		return g.transportFailure(parent, name, err)
	}
	// Connection-level failure: drop the client so the next attempt
	// redials, and count it against the member.
	g.forgetStreamClient(name, c)
	c.Close()
	return g.transportFailure(ctx, name, err)
}

// streamClient returns the live wire client for a worker, dialing
// outside the map lock so a slow handshake never blocks other
// workers' traffic.
func (g *Gateway) streamClient(ctx context.Context, name string) (*wire.Client, error) {
	g.scMu.Lock()
	c := g.streamClients[name]
	g.scMu.Unlock()
	if c != nil {
		return c, nil
	}
	url, ok := g.ms.URL(name)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown worker %q", name)
	}
	nc, err := wire.Dial(ctx, url, wire.Options{MaxFrameBytes: g.maxWorkerBody})
	if err != nil {
		return nil, err
	}
	g.scMu.Lock()
	if existing := g.streamClients[name]; existing != nil {
		g.scMu.Unlock()
		nc.Close() // lost a dial race; use the established one
		return existing, nil
	}
	g.streamClients[name] = nc
	g.scMu.Unlock()
	return nc, nil
}

// forgetStreamClient removes a worker's client (if still current), so
// the next forward to that worker redials.
func (g *Gateway) forgetStreamClient(name string, c *wire.Client) {
	g.scMu.Lock()
	if g.streamClients[name] == c {
		delete(g.streamClients, name)
	}
	g.scMu.Unlock()
}

// --- handlers ---------------------------------------------------------

func (g *Gateway) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, &serve.APIError{Status: http.StatusMethodNotAllowed, Code: serve.CodeMethod, Message: "POST required"}, g.retryAfterSecs)
		return
	}
	g.mRequests.Inc()
	start := g.mono.MonoNow()
	data, apiErr := serve.ReadBody(w, r, g.cfg.MaxBodyBytes)
	if apiErr != nil {
		serve.WriteError(w, apiErr, g.retryAfterSecs)
		return
	}
	req, apiErr := serve.DecodeLoadRequestDefault(data, g.cfg.DefaultFidelity)
	if apiErr != nil {
		serve.WriteError(w, apiErr, g.retryAfterSecs)
		return
	}
	ctx, cancel := serve.RequestCtx(r.Context(), req.TimeoutMs, 0)
	defer cancel()

	fwd, apiErr := g.executeLoad(ctx, req)
	status := http.StatusOK
	if apiErr != nil {
		status = apiErr.Status
		serve.WriteError(w, apiErr, g.retryAfterSecs)
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		if fwd.source != "" {
			h.Set(serve.SourceHeader, fwd.source)
		}
		if fwd.fidelity != "" {
			h.Set(serve.FidelityHeader, fwd.fidelity)
		}
		h.Set(WorkerHeader, fwd.worker)
		h.Set(AttemptsHeader, strconv.Itoa(fwd.attempts))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(fwd.body)
	}
	g.observe("load", status, fwd.worker, fwd.attempts, start)
}

func (g *Gateway) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, &serve.APIError{Status: http.StatusMethodNotAllowed, Code: serve.CodeMethod, Message: "POST required"}, g.retryAfterSecs)
		return
	}
	g.mRequests.Inc()
	start := g.mono.MonoNow()
	data, apiErr := serve.ReadBody(w, r, g.cfg.MaxBodyBytes)
	if apiErr != nil {
		serve.WriteError(w, apiErr, g.retryAfterSecs)
		return
	}
	req, cells, apiErr := serve.DecodeCampaignRequestDefault(data, g.cfg.DefaultFidelity)
	if apiErr != nil {
		serve.WriteError(w, apiErr, g.retryAfterSecs)
		return
	}
	ctx, cancel := serve.RequestCtx(r.Context(), req.TimeoutMs, 0)
	defer cancel()

	// Fan the grid out across the cluster: each cell routes by its own
	// key (the grid-derived seed spreads neighbouring cells) and fails
	// over per cell, so the aggregate is byte-identical to a single
	// node's at any width and any failure pattern that leaves at least
	// one worker per key.
	out := make([]serve.CampaignCell, len(cells))
	sources := make([]string, len(cells))
	forward := func(ctx context.Context, lr serve.LoadRequest) ([]byte, string, *serve.APIError) {
		fwd, apiErr := g.executeLoad(ctx, lr)
		return fwd.body, fwd.source, apiErr
	}
	apiErr = serve.RunCampaign(ctx, cells, g.cfg.Fanout, forward, func(i int, cell serve.CampaignCell, source string) {
		out[i] = cell
		sources[i] = source
	})
	if apiErr != nil {
		serve.WriteError(w, apiErr, g.retryAfterSecs)
		g.observe("campaign", apiErr.Status, "", 0, start)
		return
	}
	g.mCells.Add(uint64(len(cells)))
	if agg := serve.AggregateSource(sources); agg != "" {
		w.Header().Set(serve.SourceHeader, agg)
	}
	serve.WriteJSON(w, http.StatusOK, serve.CampaignResponse{Cells: out})
	g.observe("campaign", http.StatusOK, "", 0, start)
}

// handlePages proxies discovery to the cluster (the corpus lives on
// the workers; the gateway stays simulation-free), with the same
// re-route-and-retry as the simulation path.
func (g *Gateway) handlePages(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, &serve.APIError{Status: http.StatusMethodNotAllowed, Code: serve.CodeMethod, Message: "GET required"}, g.retryAfterSecs)
		return
	}
	for _, name := range Rank("v1-pages", g.ms.Live()) {
		url, ok := g.ms.URL(name)
		if !ok {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url+"/v1/pages", nil)
		if err != nil {
			continue
		}
		resp, err := g.client.Do(req)
		if err != nil {
			g.mFwdErrors.Inc()
			g.ms.ReportFailure(name)
			continue
		}
		body, err := g.readWorkerBody(resp)
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(WorkerHeader, name)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	g.mNoWorkers.Inc()
	serve.WriteError(w, g.noWorkersErr(), g.retryAfterSecs)
}

func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, &serve.APIError{Status: http.StatusMethodNotAllowed, Code: serve.CodeMethod, Message: "GET required"}, g.retryAfterSecs)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"fingerprint": g.fingerprint(),
		"transport":   g.cfg.Transport,
		"members":     g.ms.Snapshot(),
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var alive, draining, dead int
	for _, st := range g.ms.Snapshot() {
		switch st.State {
		case StateAlive:
			alive++
		case StateDraining:
			draining++
		case StateDead:
			dead++
		}
	}
	status, code := "ok", http.StatusOK
	if alive == 0 {
		// The gateway process is fine, but it cannot place work: a
		// load balancer should stop sending it traffic until probes
		// bring a worker back.
		status, code = "no_workers", http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, map[string]any{
		"status":   status,
		"role":     "gateway",
		"workers":  map[string]int{"alive": alive, "draining": draining, "dead": dead},
		"requests": g.mRequests.Value(),
	})
}

// observe emits the per-request access line and latency sample.
func (g *Gateway) observe(endpoint string, status int, worker string, attempts int, start clock.MonoTime) {
	elapsed := clock.MonoSince(g.mono, start)
	g.hLatency.Observe(elapsed.Seconds())
	g.alog.Info().
		Str("endpoint", endpoint).
		Int("status", status).
		Str("worker", worker).
		Int("attempts", attempts).
		Dur("total_ms", elapsed).
		Msg("request")
}
