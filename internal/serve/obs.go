package serve

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dora/internal/clock"
	"dora/internal/telemetry"
)

// This file is the serving-path observability layer: per-request IDs,
// the HTTP middleware that feeds per-endpoint latency/status/queue
// histograms and emits one structured access-log line per request,
// the /debug/vars JSON snapshot, and the opt-in pprof mounts.
//
// All request timing here runs on clock.Mono (process-monotonic
// ticks): serving latency must survive wall-clock steps, and keeping
// it on a separate type from the deterministic sim clock lets doralint
// statically guarantee it never reaches fingerprint-feeding packages.

// RequestIDHeader carries the per-request ID: generated when absent,
// propagated (after validation) when a client or proxy already
// assigned one, and always echoed on the response.
const RequestIDHeader = "X-Dora-Request-Id"

// ErrorCodeHeader mirrors the structured error code of a failed
// request as a response header, so the access log (and any proxy) can
// record the outcome without parsing the body.
const ErrorCodeHeader = "X-Dora-Error-Code"

// SourceHeader names the response-provenance header (sim|dedup|cache).
const SourceHeader = "X-Dora-Source"

// FidelityHeader echoes the simulation fidelity a /v1/load response
// was computed under (exact|sampled), after normalization.
const FidelityHeader = "X-Dora-Fidelity"

// ridSeq numbers requests within this process; ridPrefix makes IDs
// from different daemon instances distinguishable in merged logs.
var (
	ridSeq    atomic.Uint64
	ridPrefix = func() string {
		var b [4]byte
		if _, err := crand.Read(b[:]); err != nil {
			binary.LittleEndian.PutUint32(b[:], uint32(clock.Mono{}.MonoNow()))
		}
		return hex.EncodeToString(b[:])
	}()
)

// newRequestID mints a process-unique request ID: 8 hex chars of boot
// entropy plus a sequence number.
func newRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridSeq.Add(1), 10)
}

// validRequestID accepts propagated IDs that are short and token-like
// (letters, digits, '.', '_', '-'); anything else is replaced, never
// trusted into log lines.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// reqObs is the per-request observability record. The transport that
// serves a request (the JSON middleware or the stream handler) creates
// it, admission and simulation report into it through the context, and
// the transport fills in the outcome before logRequest turns it into
// metrics and one access line. simNanos is an atomic because campaign
// cells accumulate into it from pool workers.
type reqObs struct {
	id        string
	start     clock.MonoTime
	queueWait time.Duration
	simNanos  atomic.Int64
	// timed marks a load or campaign that got past the drain check;
	// only those feed dora_serve_request_seconds.
	timed bool

	method, path, endpoint string
	status                 int
	code, source, fidelity string
	bytes                  int64
}

// newReqObs starts a request's record; its outcome stays 200 unless
// the transport records otherwise.
func (s *Server) newReqObs(id, method, path, endpoint string) *reqObs {
	return &reqObs{id: id, start: s.mono.MonoNow(), method: method, path: path, endpoint: endpoint, status: http.StatusOK}
}

// countRequest counts one simulation request (load or campaign, either
// transport) that got past the drain check.
func (s *Server) countRequest(obs *reqObs) {
	s.mRequests.Inc()
	if obs != nil {
		obs.timed = true
	}
}

type obsKey struct{}

// obsFrom returns the request's observability record, or nil outside
// the middleware (direct handler tests).
func obsFrom(ctx context.Context) *reqObs {
	o, _ := ctx.Value(obsKey{}).(*reqObs)
	return o
}

// endpointMetrics is one endpoint's slice of the registry: a latency
// histogram plus request/status-class counters. The registry has no
// labels by design, so endpoints get individually named metrics
// (dora_http_<endpoint>_seconds etc.) with a fixed, known cardinality.
type endpointMetrics struct {
	latency *telemetry.Histogram
	reqs    *telemetry.Counter
	status  [4]*telemetry.Counter // 2xx, 3xx, 4xx, 5xx
}

// endpointKeys are the route buckets the middleware distinguishes;
// unknown paths collapse into "other" so cardinality stays bounded no
// matter what clients probe. "stream" is fed per logical request by
// the stream transport itself, not by the middleware (hijacked
// connections bypass it).
var endpointKeys = []string{"load", "campaign", "stream", "pages", "healthz", "metrics", "vars", "pprof", "other"}

func endpointOf(path string) string {
	switch {
	case path == "/v1/load":
		return "load"
	case path == "/v1/campaign":
		return "campaign"
	case path == "/v1/stream":
		return "stream"
	case path == "/v1/pages":
		return "pages"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case path == "/debug/vars":
		return "vars"
	case strings.HasPrefix(path, "/debug/pprof/"), path == "/debug/pprof":
		return "pprof"
	default:
		return "other"
	}
}

// serveObs bundles the middleware's metric handles.
type serveObs struct {
	endpoints  map[string]*endpointMetrics
	queueDepth *telemetry.Histogram
}

func newServeObs(reg *telemetry.Registry) *serveObs {
	o := &serveObs{endpoints: make(map[string]*endpointMetrics, len(endpointKeys))}
	for _, ep := range endpointKeys {
		// Metric names are assembled once here, outside any request
		// path; handles are resolved a single time and kept.
		base := "dora_http_" + ep
		latName := base + "_seconds"
		latHelp := "request latency (seconds) for endpoint " + ep
		reqName := base + "_requests_total"
		reqHelp := "requests handled for endpoint " + ep
		m := &endpointMetrics{
			latency: reg.Histogram(latName, latHelp, telemetry.ExponentialBuckets(0.0005, 2, 16)),
			reqs:    reg.Counter(reqName, reqHelp),
		}
		for i, class := range [...]string{"2xx", "3xx", "4xx", "5xx"} {
			cName := base + "_status_" + class + "_total"
			cHelp := "responses with a " + class + " status for endpoint " + ep
			m.status[i] = reg.Counter(cName, cHelp)
		}
		o.endpoints[ep] = m
	}
	o.queueDepth = reg.Histogram("dora_serve_queue_depth_observed", "admission queue depth sampled at request arrival", telemetry.ExponentialBuckets(1, 2, 9))
	return o
}

// statusRecorder captures the status code and body size the handler
// produced, for metrics and the access log.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	bytes    int64
	hijacked bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// Hijack passes through to the underlying listener so the stream
// upgrade works behind the middleware; a successful hijack hands the
// connection's observability over to the stream layer (one access
// line and one metrics record per logical request, not per conn).
func (sr *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := sr.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, errors.New("underlying ResponseWriter does not support hijacking")
	}
	conn, rw, err := hj.Hijack()
	if err == nil {
		sr.hijacked = true
		sr.status = http.StatusSwitchingProtocols
	}
	return conn, rw, err
}

// withObs wraps the route table with the observability middleware:
// request-ID assignment, queue depth sampling, and — through
// logRequest — per-endpoint metrics and one access-log line per
// request.
func (s *Server) withObs(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(RequestIDHeader)
		if !validRequestID(rid) {
			rid = newRequestID()
		}
		obs := s.newReqObs(rid, r.Method, r.URL.Path, endpointOf(r.URL.Path))
		r = r.WithContext(context.WithValue(r.Context(), obsKey{}, obs))
		w.Header().Set(RequestIDHeader, rid)
		s.obs.queueDepth.Observe(float64(s.queued.Load()))

		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sr, r)

		if sr.hijacked {
			// The connection was upgraded to the stream transport,
			// which records each logical request itself; a
			// per-connection record here would just measure connection
			// lifetime.
			return
		}
		obs.status, obs.bytes = sr.status, sr.bytes
		obs.code = sr.Header().Get(ErrorCodeHeader)
		obs.source = sr.Header().Get(SourceHeader)
		obs.fidelity = sr.Header().Get(FidelityHeader)
		s.logRequest(obs)
	})
}

// logRequest is the one access path both transports end a request
// with: the endpoint's latency and status-class metrics,
// dora_serve_request_seconds for simulation requests, the 504 counter,
// and one access-log line.
func (s *Server) logRequest(obs *reqObs) {
	elapsed := clock.MonoSince(s.mono, obs.start)
	if obs.timed {
		s.hLatency.Observe(elapsed.Seconds())
	}
	if obs.status == http.StatusGatewayTimeout {
		s.mDeadline.Inc()
	}
	if m := s.obs.endpoints[obs.endpoint]; m != nil {
		m.reqs.Inc()
		m.latency.Observe(elapsed.Seconds())
		if class := obs.status/100 - 2; class >= 0 && class < len(m.status) {
			m.status[class].Inc()
		}
	}

	outcome := "ok"
	if obs.code != "" {
		outcome = obs.code
	} else if obs.status >= 400 {
		outcome = "error"
	}
	s.alog.Info().
		Str("rid", obs.id).
		Str("method", obs.method).
		Str("path", obs.path).
		Str("endpoint", obs.endpoint).
		Int("status", obs.status).
		Str("outcome", outcome).
		Str("source", obs.source).
		Str("fidelity", obs.fidelity).
		Dur("queue_wait_ms", obs.queueWait).
		Dur("sim_ms", time.Duration(obs.simNanos.Load())).
		Dur("total_ms", elapsed).
		Int64("bytes", obs.bytes).
		Msg("request")
}

// buildVersion resolves the daemon's version string from the embedded
// module build info: the module version when stamped, else the VCS
// revision, else "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev, dirty string
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	return "devel"
}

// handleVars is the /debug/vars-style JSON snapshot: one GET returns
// build identity, uptime, runtime stats, serving state, and every
// registry metric — the daemon's whole operational surface in one
// scrape-friendly document.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &APIError{Status: http.StatusMethodNotAllowed, Code: CodeMethod, Message: "GET required"})
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := s.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"version":   s.version,
		"go":        runtime.Version(),
		"uptime_s":  clock.MonoSince(s.mono, s.startMono).Seconds(),
		"draining":  s.Draining(),
		"in_flight": s.InFlight(),
		"runtime": map[string]any{
			"goroutines":     runtime.NumGoroutine(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"heap_alloc":     ms.HeapAlloc,
			"heap_objects":   ms.HeapObjects,
			"total_alloc":    ms.TotalAlloc,
			"gc_cycles":      ms.NumGC,
			"gc_pause_total": time.Duration(ms.PauseTotalNs).Seconds(),
		},
		"serving": st,
		"metrics": registryJSON(s.reg),
	})
}

// registryJSON renders the registry's JSON exposition as a raw
// message for embedding into the /debug/vars document.
func registryJSON(reg *telemetry.Registry) json.RawMessage {
	var b bytes.Buffer
	if err := reg.WriteJSON(&b); err != nil {
		return json.RawMessage(`[]`)
	}
	return json.RawMessage(bytes.TrimSpace(b.Bytes()))
}

// mountPprof exposes the standard net/http/pprof handlers under
// /debug/pprof/ on the daemon's own mux (never the default mux), so
// CPU/heap/block profiles of a live daemon are one curl away when the
// operator opted in.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Stats is a point-in-time snapshot of the serving counters, used by
// /debug/vars and the daemon's shutdown summary.
type Stats struct {
	Requests         uint64 `json:"requests"`
	AdmissionRejects uint64 `json:"admission_rejects"`
	DrainRejects     uint64 `json:"drain_rejects"`
	DeadlineExpired  uint64 `json:"deadline_expired"`
	DedupJoins       uint64 `json:"dedup_joins"`
	SimExecutions    uint64 `json:"sim_executions"`
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	CampaignCells    uint64 `json:"campaign_cells"`
}

// Stats returns the current serving counter snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:         s.mRequests.Value(),
		AdmissionRejects: s.mRejects.Value(),
		DrainRejects:     s.mDrainRejects.Value(),
		DeadlineExpired:  s.mDeadline.Value(),
		DedupJoins:       s.mDedup.Value(),
		SimExecutions:    s.mExecs.Value(),
		CacheHits:        s.mCacheHits.Value(),
		CacheMisses:      s.mCacheMisses.Value(),
		CampaignCells:    s.mCampaignCells.Value(),
	}
}

// retryAfterSecs returns the advisory Retry-After backoff in whole
// seconds: the configured base plus up to 50% deterministic-per-
// process pseudo-random jitter, so a fleet of clients shed together
// does not retry together (thundering herd).
func (s *Server) retryAfterSecs() int {
	// splitmix64 over an atomic Weyl sequence: lock-free, good enough
	// mixing for jitter, and no dependency on math/rand.
	x := s.jitterState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	base := s.cfg.RetryAfter
	jitter := time.Duration(x % uint64(base/2+1))
	secs := int((base + jitter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
