// Package serve implements dorad, the simulation-serving daemon: an
// HTTP/JSON front end (standard library only) that composes the fast
// simulation kernel, the persistent run cache, the worker pool, and
// the telemetry registry into a long-running, deadline-aware service.
//
// The pipeline for a simulation request mirrors the scheduling problem
// the simulated governor itself solves — finite capacity, deadlines,
// and load shedding:
//
//	decode/validate -> admission queue (429 + Retry-After when full)
//	-> singleflight dedup (identical in-flight requests share one
//	simulation and receive byte-identical bodies) -> persistent
//	runcache warm hit -> sim.LoadPageCtx under a cancellable context
//	(per-request deadline -> 504, abandoned flight -> aborted run).
//
// Determinism survives the network: responses depend only on the
// request (device config, page, governor, seed), never on concurrency,
// queueing order, or cache temperature. Graceful drain refuses new
// work with 503 while in-flight simulations run to completion.
//
// This package is intentionally outside doralint's determinism package
// set (it reads the wall clock for latency metrics and Retry-After),
// but its telemetry call sites are held to the telemetrysafe rule like
// everything else.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/clock"
	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/memo"
	"dora/internal/obslog"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/webgen"
	"dora/internal/wire"
)

// Config configures a Server. The zero value is usable: Nexus 5
// device, no models (model-based governors answer 400), defaults for
// every limit.
type Config struct {
	// Device is the simulated device (zero value = soc.NexusFive()).
	Device soc.Config
	// Models enables the DORA/DL/EE governors when non-nil.
	Models *core.Models
	// Workers bounds campaign-grid fan-out (0 = pool.DefaultSize()).
	Workers int
	// Concurrency is the number of requests simulated at once
	// (default 4). Admitted requests beyond it wait in the queue.
	Concurrency int
	// MaxQueue bounds waiting requests beyond Concurrency (default 64);
	// past it the daemon sheds load with 429 + Retry-After.
	MaxQueue int
	// DefaultTimeout bounds request processing when the request does
	// not set timeout_ms (0 = no implicit deadline).
	DefaultTimeout time.Duration
	// RetryAfter is the advisory backoff on 429/503 (default 1 s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Cache, when set, serves repeat requests from disk and records
	// fresh ones (the same persistent store the CLIs use).
	Cache *runcache.Cache
	// DefaultFidelity is the simulation fidelity applied to requests
	// that omit the field ("" = exact). A request's explicit fidelity
	// always wins. NewServer canonicalizes the value, falling back to
	// exact if it is not a known mode.
	DefaultFidelity string
	// Metrics receives request- and simulation-level metrics
	// (nil = a fresh registry, exposed at GET /metrics).
	Metrics *telemetry.Registry
	// Log receives structured serving logs; the server derives its
	// "serve" and per-request "access" module handles from it. nil
	// discards everything at zero cost.
	Log *obslog.Logger
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/ (opt-in: profiling endpoints expose timing and
	// memory internals, so they are off unless asked for).
	EnablePprof bool
	// Mono is the monotonic clock used for serving latency and uptime
	// (nil = the real clock.Mono).
	Mono clock.MonoClock
	// MaxFrameBytes bounds a single stream-transport frame payload in
	// either direction (default MaxBodyBytes). Over-budget frames kill
	// the connection: a corrupt length prefix cannot be resynchronized.
	MaxFrameBytes int64
	// StreamWriteTimeout bounds each batched flush to a stream client
	// (default 10 s). A client that stops reading loses its connection
	// instead of wedging the writer — and any drain waiting on it.
	StreamWriteTimeout time.Duration
	// StreamIdleTimeout closes a stream connection that has not
	// delivered a complete frame in this long (default 5 min; <0
	// disables). Refreshed on every frame.
	StreamIdleTimeout time.Duration
	// BeforeSimHook, when set, runs in the flight leader right before
	// its simulation starts, keyed by the flight's dedup key. Test
	// instrumentation only: the in-package e2e tests and the cluster
	// harness park simulations here to make queue-full, drain, and
	// mid-campaign fault timing deterministic.
	BeforeSimHook func(key string)
}

// Server is the dorad daemon core: handlers plus the admission,
// dedup, caching, and drain machinery. Create with NewServer, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg    Config
	device soc.Config
	reg    *telemetry.Registry
	fp     string // device fingerprint, part of every cache key

	sem    chan struct{}
	queued atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	drainMu  sync.RWMutex
	draining bool
	reqWG    sync.WaitGroup // admitted logical requests (HTTP + stream frames)

	// Hijacked stream connections are invisible to http.Server
	// lifecycle management, so the server tracks them itself: the map
	// lets BeginDrain say goodbye to every live conn, the WaitGroup
	// lets Drain wait for them to finish closing.
	streamMu sync.Mutex
	streams  map[*streamConn]struct{}
	streamWG sync.WaitGroup

	// flights dedups in-flight simulations by cache key; its leaders
	// run on baseCtx. Results are not kept: the run cache keeps them.
	flights *memo.Group[string, []byte]

	log       *obslog.Logger // module "serve": lifecycle + errors
	alog      *obslog.Logger // module "access": one line per request
	obs       *serveObs
	mono      clock.MonoClock
	startMono clock.MonoTime
	version   string

	jitterState atomic.Uint64 // Retry-After jitter PRNG state

	mRequests      *telemetry.Counter
	mRejects       *telemetry.Counter
	mDrainRejects  *telemetry.Counter
	mDeadline      *telemetry.Counter
	mDedup         *telemetry.Counter
	mExecs         *telemetry.Counter
	mCacheHits     *telemetry.Counter
	mCacheMisses   *telemetry.Counter
	mCampaignCells *telemetry.Counter
	gQueue         *telemetry.Gauge
	hLatency       *telemetry.Histogram

	mStreamConns      *telemetry.Counter
	gStreamConns      *telemetry.Gauge
	mStreamFramesIn   *telemetry.Counter
	mStreamFramesOut  *telemetry.Counter
	mStreamCompressed *telemetry.Counter
	hFramesPerFlush   *telemetry.Histogram
}

// NewServer builds a ready-to-mount daemon core.
func NewServer(cfg Config) *Server {
	if cfg.Device.Cores == 0 {
		cfg.Device = soc.NexusFive()
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = cfg.MaxBodyBytes
	}
	if cfg.StreamWriteTimeout <= 0 {
		cfg.StreamWriteTimeout = defaultStreamWriteTimeout
	}
	if cfg.StreamIdleTimeout == 0 {
		cfg.StreamIdleTimeout = defaultStreamIdleTimeout
	}
	defFid, err := fidelity.ParseMode(cfg.DefaultFidelity)
	if err != nil {
		defFid = fidelity.Exact
	}
	cfg.DefaultFidelity = defFid.String()
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		device:     cfg.Device,
		reg:        reg,
		fp:         sim.ConfigFingerprint(cfg.Device),
		sem:        make(chan struct{}, cfg.Concurrency),
		streams:    make(map[*streamConn]struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		flights:    memo.New[string, []byte](ctx, false),

		log:     cfg.Log.Module("serve"),
		alog:    cfg.Log.Module("access"),
		mono:    clock.MonoOr(cfg.Mono),
		version: buildVersion(),

		mRequests:      reg.Counter("dora_serve_requests_total", "simulation requests received (load + campaign)"),
		mRejects:       reg.Counter("dora_admission_rejected_total", "requests shed with 429 because the admission queue was full"),
		mDrainRejects:  reg.Counter("dora_serve_drain_rejects_total", "requests refused with 503 during graceful drain"),
		mDeadline:      reg.Counter("dora_serve_deadline_expired_total", "requests answered 504 after their deadline expired"),
		mDedup:         reg.Counter("dora_serve_dedup_joins_total", "requests coalesced onto an in-flight identical simulation"),
		mExecs:         reg.Counter("dora_serve_sim_executions_total", "simulations actually executed (cache misses, after dedup)"),
		mCacheHits:     reg.Counter("dora_serve_runcache_hits_total", "requests served from the persistent run cache"),
		mCacheMisses:   reg.Counter("dora_serve_runcache_misses_total", "requests that missed the persistent run cache"),
		mCampaignCells: reg.Counter("dora_serve_campaign_cells_total", "campaign grid cells simulated"),
		gQueue:         reg.Gauge("dora_serve_queue_depth", "requests currently admitted (simulating + waiting)"),
		hLatency:       reg.Histogram("dora_serve_request_seconds", "request latency (seconds)", telemetry.ExponentialBuckets(0.001, 2, 14)),

		mStreamConns:      reg.Counter("dora_stream_conns_total", "stream-transport connections accepted"),
		gStreamConns:      reg.Gauge("dora_stream_conns_open", "stream-transport connections currently open"),
		mStreamFramesIn:   reg.Counter("dora_stream_frames_in_total", "stream-transport frames received"),
		mStreamFramesOut:  reg.Counter("dora_stream_frames_out_total", "stream-transport frames sent"),
		mStreamCompressed: reg.Counter("dora_stream_compressed_frames_total", "stream-transport frames sent flate-compressed"),
		hFramesPerFlush:   reg.Histogram("dora_stream_frames_per_flush", "result frames coalesced into one stream flush", telemetry.ExponentialBuckets(1, 2, 8)),
	}
	s.obs = newServeObs(reg)
	s.startMono = s.mono.MonoNow()
	// Seed the Retry-After jitter stream from boot entropy (falling
	// back to a fixed seed changes nothing but the jitter phase).
	s.jitterState.Store(uint64(s.startMono.Nanos()) ^ 0x6a09e667f3bcc908)
	return s
}

// Handler returns the daemon's route table, wrapped in the
// observability middleware (request IDs, per-endpoint metrics, access
// log). pprof mounts only when the config opted in.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/load", s.handleLoad)
	mux.HandleFunc("/v1/campaign", s.handleCampaign)
	mux.HandleFunc(wire.StreamPath, s.handleStream)
	mux.HandleFunc("/v1/pages", s.handlePages)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.Handle("/metrics", s.reg.Handler())
	if s.cfg.EnablePprof {
		mountPprof(mux)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, errNotFound("no route %s %s", r.Method, r.URL.Path))
	})
	return s.withObs(mux)
}

// --- lifecycle -------------------------------------------------------

// beginRequest registers one in-flight request unless the server is
// draining. The RWMutex pairs the draining check with the WaitGroup
// add, so Drain's Wait can never race a fresh Add-from-zero.
func (s *Server) beginRequest() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// BeginDrain flips the server into draining mode: every subsequent
// simulation request — HTTP or stream frame — is refused (503 /
// TypeError draining) while already admitted ones keep running, and
// every open stream connection is told goodbye so pipelining clients
// fail over instead of discovering the drain on a dead socket.
// Idempotent.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if already {
		return
	}
	s.streamMu.Lock()
	conns := make([]*streamConn, 0, len(s.streams))
	for sc := range s.streams {
		conns = append(conns, sc)
	}
	s.streamMu.Unlock()
	// goodbye's Goodbye enqueue can block up to the stream write
	// timeout on a stalled client with a full out queue; one goroutine
	// per connection keeps drain initiation from serializing behind
	// slow clients.
	for _, sc := range conns {
		go sc.goodbye()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Drain performs graceful shutdown: refuse new requests, then wait for
// every in-flight request and detached simulation to finish. If ctx
// expires first, remaining simulations are force-cancelled and
// ctx.Err() is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		s.flights.Wait()
		s.streamWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close force-cancels everything (drain without the grace).
func (s *Server) Close() {
	s.BeginDrain()
	s.baseCancel()
}

// InFlight reports the current admitted-request count (healthz).
func (s *Server) InFlight() int { return int(s.queued.Load()) }

// --- admission -------------------------------------------------------

// admit applies backpressure: the request either takes a simulation
// slot, is parked in the bounded wait queue, or is shed. release must
// be called exactly once when admission succeeded. Time spent waiting
// for a slot is reported into the request's observability record.
func (s *Server) admit(ctx context.Context) (release func(), apiErr *APIError) {
	n := s.queued.Add(1)
	s.gQueue.Set(float64(n))
	if n > int64(s.cfg.Concurrency+s.cfg.MaxQueue) {
		s.gQueue.Set(float64(s.queued.Add(-1)))
		s.mRejects.Inc()
		return nil, &APIError{
			Status:  http.StatusTooManyRequests,
			Code:    CodeQueueFull,
			Message: fmt.Sprintf("admission queue full (%d simulating, %d queue slots)", s.cfg.Concurrency, s.cfg.MaxQueue),
		}
	}
	waitStart := s.mono.MonoNow()
	select {
	case s.sem <- struct{}{}:
		if obs := obsFrom(ctx); obs != nil {
			obs.queueWait = clock.MonoSince(s.mono, waitStart)
		}
		var once sync.Once
		return func() {
			once.Do(func() {
				<-s.sem
				s.gQueue.Set(float64(s.queued.Add(-1)))
			})
		}, nil
	case <-ctx.Done():
		s.gQueue.Set(float64(s.queued.Add(-1)))
		return nil, CtxErrToAPI(ctx)
	}
}

// --- simulation path -------------------------------------------------

// loadKey derives the cache/dedup key for a normalized load request:
// device fingerprint + every request field that reaches the simulator.
func (s *Server) loadKey(req LoadRequest) string {
	return runcache.Key("serve-load", s.fp, req)
}

// cacheGet answers a normalized load request from the persistent run
// cache. It is deliberately independent of admission: both transports
// call it before taking a semaphore slot, so a warm hit is never
// queued behind in-flight simulations — on repeat-heavy traffic the
// cache path's latency is pure transport. A hit returns the stored
// body itself: an entry this process stored is the leader's response,
// and an entry loaded from disk is replaced by its canonical encoding
// on its first hit (canonicalResult). With a cache configured it
// counts every lookup as a hit or a miss.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if s.cfg.Cache == nil {
		return nil, false
	}
	if b, ok := s.cfg.Cache.GetRaw(key, canonicalResult); ok {
		s.mCacheHits.Inc()
		return b, true
	}
	s.mCacheMisses.Inc()
	return nil, false
}

// canonicalResult vets a run-cache entry read from disk: it must decode
// as a sim.Result, and its re-encoding is the body every hit serves, so
// a hand-edited entry answers with the bytes a simulation would.
func canonicalResult(raw []byte) ([]byte, bool) {
	var r sim.Result
	if json.Unmarshal(raw, &r) != nil {
		return nil, false
	}
	b, err := json.Marshal(r)
	return b, err == nil
}

// simulate serves one normalized load request: persistent-cache warm
// hit, else join (or lead) the singleflight for its key and wait under
// the request context. The returned body is shared verbatim between
// every deduplicated waiter.
func (s *Server) simulate(ctx context.Context, req LoadRequest) (body []byte, source string, apiErr *APIError) {
	key := s.loadKey(req)
	if b, ok := s.cacheGet(key); ok {
		return b, "cache", nil
	}
	return s.simulateKey(ctx, key, req)
}

// simulateKey is simulate past the cache check: the deduplicated
// simulation for an already-derived key. Callers that ran the
// pre-admission cache fast path (executeLoad) enter here directly so
// the cache is probed exactly once per request.
func (s *Server) simulateKey(ctx context.Context, key string, req LoadRequest) (body []byte, source string, apiErr *APIError) {
	simStart := s.mono.MonoNow()
	if obs := obsFrom(ctx); obs != nil {
		// Campaign cells run concurrently; accumulate wall time spent
		// in simulation (including dedup/cache waits) atomically.
		defer func() {
			obs.simNanos.Add(clock.MonoSince(s.mono, simStart).Nanoseconds())
		}()
	}
	body, out, err := s.flights.Do(ctx, key, func(simCtx context.Context) ([]byte, error) {
		return s.lead(simCtx, key, req)
	})
	source = "sim"
	if out == memo.Joined {
		s.mDedup.Inc()
		source = "dedup"
	}
	if err != nil {
		if !errors.As(err, &apiErr) { // the request's own context ended
			apiErr = CtxErrToAPI(ctx)
		}
		return nil, "", apiErr
	}
	return body, source, nil
}

// CodeAborted marks a leader whose simulation was cancelled because
// every waiter left (or the server force-closed); live waiters retry
// it, and executeLoad maps what remains to CodeDraining.
const CodeAborted = "aborted"

// lead is the singleflight leader: it executes the simulation under
// simCtx (cancelled when the last waiter leaves or the server closes)
// and encodes the result once. That body is what every waiter writes
// verbatim and what the persistent cache stores, so N deduplicated
// responses and every later cache hit are byte-identical by
// construction. Every error it returns is an *APIError.
func (s *Server) lead(simCtx context.Context, key string, req LoadRequest) ([]byte, error) {
	if hook := s.cfg.BeforeSimHook; hook != nil {
		hook(key)
	}
	s.mExecs.Inc()
	res, err := s.runSim(simCtx, req)
	switch {
	case err == nil:
		res.Publish(s.reg)
		body, merr := json.Marshal(res)
		if merr != nil {
			return nil, &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: "encode result: " + merr.Error()}
		}
		s.cfg.Cache.PutRaw(key, body)
		return body, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, &APIError{Status: http.StatusServiceUnavailable, Code: CodeAborted, Message: "simulation aborted: " + err.Error()}
	default:
		return nil, &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
	}
}

// runSim performs the actual measured load for a normalized request.
// Every run builds a fresh governor: governors carry decision state,
// and sharing one across runs would let request order leak into
// results.
func (s *Server) runSim(ctx context.Context, req LoadRequest) (sim.Result, error) {
	var gov governor.Governor
	interval := 20 * time.Millisecond
	var err error
	if req.Governor == "fixed" {
		gov = governor.NewFixed(s.device.OPPs.Ceil(req.FreqMHz))
	} else if gov, interval, err = core.NewGovernor(req.Governor, s.cfg.Models); err != nil {
		return sim.Result{}, err
	}
	spec, err := webgen.ByName(req.Page)
	if err != nil {
		return sim.Result{}, err
	}
	wl := sim.Workload{Page: spec}
	if req.CoRunner != "" {
		k, err := corun.ByName(req.CoRunner)
		if err != nil {
			return sim.Result{}, err
		}
		wl.CoRun = &k
	}
	if req.DecisionIntervalMs > 0 {
		interval = time.Duration(req.DecisionIntervalMs) * time.Millisecond
	}
	// req.Fidelity was canonicalized at decode time, so ParseMode
	// cannot fail here; a zero-valued request still runs exact.
	mode, _ := fidelity.ParseMode(req.Fidelity)
	return sim.LoadPageCtx(ctx, sim.Options{
		SoC:              s.device,
		Governor:         gov,
		Deadline:         time.Duration(req.DeadlineMs) * time.Millisecond,
		DecisionInterval: interval,
		Warmup:           time.Duration(req.WarmupMs) * time.Millisecond,
		MaxLoadTime:      time.Duration(req.MaxLoadMs) * time.Millisecond,
		Seed:             req.Seed,
		AmbientC:         req.AmbientC,
		Fidelity:         mode,
	}, wl)
}

// requireModels refuses a model-based governor on a server started
// without models: a fast 400 instead of a queued-then-failed
// simulation.
func (s *Server) requireModels(name string) *APIError {
	if s.cfg.Models == nil && core.NeedsModels(name) {
		return &APIError{Status: http.StatusBadRequest, Code: CodeModelRequired,
			Message: fmt.Sprintf("governor %q needs trained models; start dorad with -models", name)}
	}
	return nil
}

// --- handlers --------------------------------------------------------

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, &APIError{Status: http.StatusMethodNotAllowed, Code: CodeMethod, Message: "POST required"})
		return
	}
	if !s.beginRequest() {
		s.writeDrainRefusal(w)
		return
	}
	defer s.reqWG.Done()
	s.countRequest(obsFrom(r.Context()))

	data, apiErr := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	req, apiErr := DecodeLoadRequestDefault(data, s.cfg.DefaultFidelity)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}

	ctx, cancel := RequestCtx(r.Context(), req.TimeoutMs, s.cfg.DefaultTimeout)
	defer cancel()
	body, source, apiErr := s.executeLoad(ctx, req)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(SourceHeader, source)
	w.Header().Set(FidelityHeader, req.Fidelity)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, &APIError{Status: http.StatusMethodNotAllowed, Code: CodeMethod, Message: "POST required"})
		return
	}
	if !s.beginRequest() {
		s.writeDrainRefusal(w)
		return
	}
	defer s.reqWG.Done()
	s.countRequest(obsFrom(r.Context()))

	data, apiErr := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	req, cells, apiErr := DecodeCampaignRequestDefault(data, s.cfg.DefaultFidelity)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}

	ctx, cancel := RequestCtx(r.Context(), req.TimeoutMs, s.cfg.DefaultTimeout)
	defer cancel()

	out := make([]CampaignCell, len(cells))
	sources := make([]string, len(cells))
	apiErr = s.executeCampaign(ctx, cells, func(i int, cell CampaignCell, source string) {
		out[i] = cell
		sources[i] = source
	})
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	// Aggregate provenance mirrors /v1/load's header so clients see
	// every 2xx response classified.
	if agg := AggregateSource(sources); agg != "" {
		w.Header().Set(SourceHeader, agg)
	}
	WriteJSON(w, http.StatusOK, CampaignResponse{Cells: out})
}

func (s *Server) handlePages(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &APIError{Status: http.StatusMethodNotAllowed, Code: CodeMethod, Message: "GET required"})
		return
	}
	var kernels []string
	for _, k := range corun.Kernels() {
		kernels = append(kernels, k.Name)
	}
	govs := append([]string(nil), governorNames...)
	WriteJSON(w, http.StatusOK, map[string]any{
		"pages":          webgen.Names(),
		"training_pages": webgen.TrainingNames(),
		"corunners":      kernels,
		"governors":      govs,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"status":         status,
		"draining":       s.Draining(),
		"queue_depth":    s.InFlight(),
		"version":        s.version,
		"go":             runtime.Version(),
		"uptime_s":       clock.MonoSince(s.mono, s.startMono).Seconds(),
		"requests_total": s.mRequests.Value(),
		// The device fingerprint lets a cluster gateway verify every
		// worker simulates the same configuration (and fold it into its
		// routing keys) without a separate discovery endpoint.
		"fingerprint": s.fp,
	})
}

// --- response writing ------------------------------------------------

func (s *Server) writeDrainRefusal(w http.ResponseWriter) {
	s.mDrainRejects.Inc()
	s.writeError(w, &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining, Message: "server is draining; retry against another instance"})
}

// writeError is WriteError with the server's jittered Retry-After.
func (s *Server) writeError(w http.ResponseWriter, apiErr *APIError) {
	WriteError(w, apiErr, s.retryAfterSecs())
}
