// Package loadgen is doraload's engine: an aisloader-style load
// generator for dorad, supporting closed-loop (fixed concurrency,
// back-to-back) and open-loop (fixed arrival rate) driving, a
// configurable request mix (single loads vs. small campaign grids,
// fresh requests vs. repeats that exercise the dedup and run-cache
// paths), and latency accounting through the same telemetry.Histogram
// code the daemon itself exposes — so the percentiles doraload prints
// and the ones dorad serves come from one implementation.
//
// The generator speaks both serving transports: the HTTP/JSON compat
// endpoints and the binary stream transport (internal/wire), selected
// per run or side by side ("both"), with the identical deterministic
// request sequence on each so the emitted report is a fair
// transport-vs-transport comparison. Campaign latency is recorded
// twice — time to the first result and time to the full grid — which
// is where the stream transport's incremental cell delivery shows up.
//
// The generator's own randomness is a seeded rand.Rand: two runs with
// the same seed and mix issue the same request sequence (arrival
// *timing* still depends on the target's latency, which is the point
// of a load test). Latency is measured on clock.Mono, the monotonic
// serving clock.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/clock"
	"dora/internal/obslog"
	"dora/internal/telemetry"
	"dora/internal/wire"
)

// Schema identifies the report document shape this package emits; bump
// it on breaking changes so Validate rejects reports of the old shape.
// v2: per-transport sub-reports under "transports", campaign
// first-result latency split from full-grid latency, and complete
// source accounting (every 2xx response classified, see SourcesNote).
const Schema = "dora-bench-serve/v2"

// SourcesNote is embedded in every report to pin down the source
// accounting denominator: v1 silently dropped campaign responses from
// the tally (sources summed below requests), which skewed dedup/cache
// rates.
const SourcesNote = "sources classifies every 2xx response by its X-Dora-Source equivalent: loads by response source, campaigns by the aggregate of their cells ('mixed' when cells disagree), 'none' when the server sent no provenance; sources sums to status.2xx, and dedup_rate/cache_hit_rate are fractions of status.2xx"

// Transport names accepted by Config.Transport.
const (
	TransportJSON   = "json"
	TransportStream = "stream"
	TransportBoth   = "both"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL targets the daemon, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// Transport selects the serving transport: "json" (default), the
	// binary "stream" transport, or "both" — which runs the identical
	// request sequence once per transport (JSON first) and emits a
	// side-by-side report with a comparison section.
	Transport string
	// Duration is how long to generate load per transport (default 5 s).
	Duration time.Duration
	// Concurrency is the worker count (closed loop) or the maximum
	// in-flight requests (open loop). Default 4. On the stream
	// transport all workers pipeline onto one shared connection.
	Concurrency int
	// QPS > 0 switches to open-loop arrivals at that rate; 0 keeps
	// the closed loop.
	QPS float64
	// CampaignFrac is the fraction of requests issued as small
	// campaign grids instead of single loads (default 0). A campaign
	// spans every configured page under one governor, so grids have
	// len(Pages) cells.
	CampaignFrac float64
	// RepeatFrac is the fraction of requests that re-issue an
	// already-sent request, exercising the daemon's dedup and run-cache
	// paths (default 0).
	RepeatFrac float64
	// FidelityFrac is the fraction of fresh requests issued with
	// fidelity "sampled" instead of the exact default (default 0),
	// exercising the sampled simulation kernel under load.
	FidelityFrac float64
	// Pages and Governors are drawn from uniformly per request.
	// Defaults: {"Alipay"} and {"interactive"}.
	Pages     []string
	Governors []string
	// Seed drives the generator's request sequence (default 1).
	Seed int64
	// WarmupMs / MaxLoadMs / TimeoutMs are copied into every request
	// (zero = daemon defaults).
	WarmupMs  int64
	MaxLoadMs int64
	TimeoutMs int64
	// Compress asks the stream transport for per-frame flate
	// compression (no effect on the JSON transport).
	Compress bool
	// Client overrides the HTTP client (tests); nil uses a dedicated
	// client with sane pooling for Concurrency.
	Client *http.Client
	// Log receives progress lines (module "doraload"); nil is silent.
	Log *obslog.Logger
	// Mono overrides the latency clock (tests); nil = real monotonic.
	Mono clock.MonoClock
}

// LatencySummary is one latency section of a report, in milliseconds.
type LatencySummary struct {
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// TransportReport is one transport's measurement: the full per-request
// tallies for either the JSON or the stream run.
type TransportReport struct {
	Transport     string  `json:"transport"` // "json" | "stream"
	DurationS     float64 `json:"duration_s"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	MissedTicks   uint64  `json:"missed_ticks"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency covers every request, loads and campaigns alike, to full
	// completion.
	Latency LatencySummary `json:"latency"`
	// CampaignFirstResult is the latency to a campaign's *first* cell
	// result; CampaignFull is to its last. On the stream transport,
	// cells arrive incrementally so the two diverge on multi-cell
	// grids; the JSON transport delivers one blob, so they coincide.
	// Present only when the mix issued campaigns.
	CampaignFirstResult *LatencySummary   `json:"campaign_first_result,omitempty"`
	CampaignFull        *LatencySummary   `json:"campaign_full,omitempty"`
	Status              map[string]uint64 `json:"status"`
	// Sources classifies every 2xx response (see Report.SourcesNote).
	Sources      map[string]uint64 `json:"sources"`
	DedupRate    float64           `json:"dedup_rate"`
	CacheHitRate float64           `json:"cache_hit_rate"`
}

// Comparison relates the stream run to the JSON run when both were
// measured: >1 means the stream transport won.
type Comparison struct {
	ThroughputGain float64 `json:"throughput_gain"` // stream rps / json rps
	P50Speedup     float64 `json:"p50_speedup"`     // json p50 / stream p50
	P99Speedup     float64 `json:"p99_speedup"`     // json p99 / stream p99
	// FirstResultSpeedup relates campaign first-result latency (json
	// p50 / stream p50); zero when the mix had no campaigns.
	FirstResultSpeedup float64 `json:"first_result_speedup,omitempty"`
}

// Report is the structured result of a run, the document doraload
// writes with -json.
type Report struct {
	Schema       string  `json:"schema"`
	PR           int     `json:"pr"`
	Date         string  `json:"date"`
	Go           string  `json:"go"`
	Target       string  `json:"target"`
	Mode         string  `json:"mode"` // "closed" | "open"
	Concurrency  int     `json:"concurrency"`
	QPS          float64 `json:"qps,omitempty"`
	CampaignFrac float64 `json:"campaign_frac"`
	RepeatFrac   float64 `json:"repeat_frac"`
	FidelityFrac float64 `json:"fidelity_frac,omitempty"`
	SourcesNote  string  `json:"sources_note"`
	// Transports holds one entry per measured transport ("json",
	// "stream"); Comparison is present when both were.
	Transports map[string]*TransportReport `json:"transports"`
	Comparison *Comparison                 `json:"comparison,omitempty"`
}

// validLatency checks one latency summary for ordering and positivity.
func validLatency(name string, l LatencySummary, errs *[]error) {
	check := func(ok bool, format string, args ...any) {
		if !ok {
			*errs = append(*errs, fmt.Errorf(format, args...))
		}
	}
	check(l.P50Ms > 0, "%s: p50_ms must be > 0, got %g", name, l.P50Ms)
	check(l.P50Ms <= l.P90Ms && l.P90Ms <= l.P95Ms && l.P95Ms <= l.P99Ms,
		"%s: percentiles not monotone: p50=%g p90=%g p95=%g p99=%g", name, l.P50Ms, l.P90Ms, l.P95Ms, l.P99Ms)
	check(l.MaxMs >= l.MeanMs && l.MeanMs > 0, "%s: mean/max implausible: mean=%g max=%g", name, l.MeanMs, l.MaxMs)
}

// Validate checks the Report against its schema contract (doraload
// -validate): identity fields present, counters consistent,
// percentiles ordered, rates in range, and — the v1 bug — sources
// summing exactly to the 2xx count per transport.
func (r *Report) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(r.Schema == Schema, "schema = %q, want %q", r.Schema, Schema)
	check(r.PR > 0, "pr must be > 0, got %d", r.PR)
	_, dateErr := time.Parse(time.RFC3339, r.Date)
	check(dateErr == nil, "date %q is not RFC3339", r.Date)
	check(r.Go != "", "go version missing")
	check(r.Target != "", "target missing")
	check(r.Mode == "closed" || r.Mode == "open", "mode = %q, want closed|open", r.Mode)
	check(r.Concurrency > 0, "concurrency must be > 0, got %d", r.Concurrency)
	check(r.SourcesNote == SourcesNote, "sources_note drifted from the schema contract")
	check(r.FidelityFrac >= 0 && r.FidelityFrac <= 1, "fidelity_frac %g outside [0,1]", r.FidelityFrac)
	check(len(r.Transports) > 0, "transports map missing or empty")
	for key, t := range r.Transports {
		if t == nil {
			check(false, "transport %q is null", key)
			continue
		}
		name := "transports." + key
		check(key == TransportJSON || key == TransportStream, "unknown transport key %q", key)
		check(t.Transport == key, "%s: transport = %q, want %q", name, t.Transport, key)
		check(t.DurationS > 0, "%s: duration_s must be > 0, got %g", name, t.DurationS)
		check(t.Requests > 0, "%s: requests must be > 0, got %d", name, t.Requests)
		check(t.ThroughputRPS > 0, "%s: throughput_rps must be > 0, got %g", name, t.ThroughputRPS)
		validLatency(name+".latency", t.Latency, &errs)
		check((t.CampaignFirstResult == nil) == (t.CampaignFull == nil),
			"%s: campaign_first_result and campaign_full must be present together", name)
		if t.CampaignFirstResult != nil {
			validLatency(name+".campaign_first_result", *t.CampaignFirstResult, &errs)
		}
		if t.CampaignFull != nil {
			validLatency(name+".campaign_full", *t.CampaignFull, &errs)
		}
		check(t.Status != nil, "%s: status map missing", name)
		check(t.Sources != nil, "%s: sources map missing", name)
		var statusTotal uint64
		for class, n := range t.Status {
			switch class {
			case "2xx", "3xx", "4xx", "5xx", "network_error":
			default:
				check(false, "%s: unknown status class %q", name, class)
			}
			statusTotal += n
		}
		check(statusTotal == t.Requests, "%s: status classes sum to %d, requests = %d", name, statusTotal, t.Requests)
		var sourceTotal uint64
		for src, n := range t.Sources {
			switch src {
			case "sim", "dedup", "cache", "mixed", "none":
			default:
				check(false, "%s: unknown source %q", name, src)
			}
			sourceTotal += n
		}
		// The v1 accounting bug, now a hard schema invariant: every 2xx
		// response is classified, no more, no fewer.
		check(sourceTotal == t.Status["2xx"], "%s: sources sum to %d, status.2xx = %d", name, sourceTotal, t.Status["2xx"])
		check(t.DedupRate >= 0 && t.DedupRate <= 1, "%s: dedup_rate %g outside [0,1]", name, t.DedupRate)
		check(t.CacheHitRate >= 0 && t.CacheHitRate <= 1, "%s: cache_hit_rate %g outside [0,1]", name, t.CacheHitRate)
	}
	_, hasJSON := r.Transports[TransportJSON]
	_, hasStream := r.Transports[TransportStream]
	if hasJSON && hasStream {
		check(r.Comparison != nil, "comparison missing for a both-transport report")
		if r.Comparison != nil {
			check(r.Comparison.ThroughputGain > 0, "comparison.throughput_gain must be > 0, got %g", r.Comparison.ThroughputGain)
			check(r.Comparison.P50Speedup > 0, "comparison.p50_speedup must be > 0, got %g", r.Comparison.P50Speedup)
		}
	} else {
		check(r.Comparison == nil, "comparison present without both transports")
	}
	return errors.Join(errs...)
}

// ValidateJSON decodes data as a Report (rejecting unknown fields, so
// the committed file cannot drift ahead of the schema) and validates
// it. Used by `doraload -validate` in CI.
func ValidateJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("loadgen: report: %w", err)
	}
	return r.Validate()
}

// counters aggregates worker-side observations race-free.
type counters struct {
	requests atomic.Uint64
	errs     atomic.Uint64
	missed   atomic.Uint64
	status   [5]atomic.Uint64 // 2xx 3xx 4xx 5xx network_error
	sources  [5]atomic.Uint64 // sim dedup cache mixed none
	maxNs    atomic.Int64
}

var sourceIndex = map[string]int{"sim": 0, "dedup": 1, "cache": 2, "mixed": 3, "none": 4}
var sourceKeys = [...]string{"sim", "dedup", "cache", "mixed", "none"}

// spec is one transport-neutral request: enough to build either the
// JSON body or the wire frame, so the same deterministic sequence
// drives both transports.
type spec struct {
	campaign bool
	pages    []string // campaign grids span these (one governor)
	page     string   // single load
	governor string
	seed     int64
	fidelity string
}

// mixer deterministically produces the request stream: fresh specs
// (new seeds) or repeats of already-issued ones, single loads or
// small campaigns.
type mixer struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    *Config
	nextID int64
	issued []spec
}

func newMixer(cfg *Config) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

func (m *mixer) next() spec {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.issued); n > 0 && m.rng.Float64() < m.cfg.RepeatFrac {
		return m.issued[m.rng.Intn(n)]
	}
	page := m.cfg.Pages[m.rng.Intn(len(m.cfg.Pages))]
	gov := m.cfg.Governors[m.rng.Intn(len(m.cfg.Governors))]
	seed := m.cfg.Seed + m.nextID*1009
	m.nextID++
	fid := ""
	if m.rng.Float64() < m.cfg.FidelityFrac {
		fid = "sampled"
	}
	sp := spec{page: page, governor: gov, seed: seed, fidelity: fid}
	if m.rng.Float64() < m.cfg.CampaignFrac {
		sp.campaign = true
		sp.pages = m.cfg.Pages
	}
	m.issued = append(m.issued, sp)
	return sp
}

// jsonBody renders the spec as the JSON endpoint body (path, payload).
func (sp spec) jsonBody(cfg *Config) (string, []byte) {
	if sp.campaign {
		req := map[string]any{"pages": sp.pages, "governors": []string{sp.governor}, "seed": sp.seed}
		if sp.fidelity != "" {
			req["fidelity"] = sp.fidelity
		}
		if cfg.WarmupMs > 0 {
			req["warmup_ms"] = cfg.WarmupMs
		}
		if cfg.TimeoutMs > 0 {
			req["timeout_ms"] = cfg.TimeoutMs
		}
		payload, _ := json.Marshal(req)
		return "/v1/campaign", payload
	}
	req := map[string]any{"page": sp.page, "governor": sp.governor, "seed": sp.seed}
	if sp.fidelity != "" {
		req["fidelity"] = sp.fidelity
	}
	if cfg.WarmupMs > 0 {
		req["warmup_ms"] = cfg.WarmupMs
	}
	if cfg.MaxLoadMs > 0 {
		req["max_load_ms"] = cfg.MaxLoadMs
	}
	if cfg.TimeoutMs > 0 {
		req["timeout_ms"] = cfg.TimeoutMs
	}
	payload, _ := json.Marshal(req)
	return "/v1/load", payload
}

// callResult is one completed request as a caller saw it.
type callResult struct {
	status   int    // -1 = no answer (network error)
	source   string // provenance of a 2xx answer, "" when unknown
	campaign bool
	// first is the latency to the first campaign result when the
	// caller can observe it (stream transport); 0 = same as full.
	first time.Duration
}

// caller abstracts one transport for the load loop.
type caller interface {
	do(ctx context.Context, sp spec) callResult
	close()
}

// --- JSON transport ---------------------------------------------------

type jsonCaller struct {
	client  *http.Client
	baseURL string
	cfg     *Config
}

func (c *jsonCaller) do(ctx context.Context, sp spec) callResult {
	path, payload := sp.jsonBody(c.cfg)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(payload))
	if err != nil {
		return callResult{status: -1, campaign: sp.campaign}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return callResult{status: -1, campaign: sp.campaign}
	}
	// Drain so the connection is reusable; bodies are small JSON.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return callResult{status: resp.StatusCode, source: resp.Header.Get("X-Dora-Source"), campaign: sp.campaign}
}

func (c *jsonCaller) close() { c.client.CloseIdleConnections() }

// --- stream transport -------------------------------------------------

type streamCaller struct {
	client *wire.Client
	cfg    *Config
	mono   clock.MonoClock
}

func dialStream(ctx context.Context, cfg *Config, mono clock.MonoClock) (*streamCaller, error) {
	cl, err := wire.Dial(ctx, cfg.BaseURL, wire.Options{Compress: cfg.Compress})
	if err != nil {
		return nil, err
	}
	return &streamCaller{client: cl, cfg: cfg, mono: mono}, nil
}

func (c *streamCaller) do(ctx context.Context, sp spec) callResult {
	if sp.campaign {
		req := &wire.CampaignRequest{
			Pages:     sp.pages,
			Governors: []string{sp.governor},
			Seed:      sp.seed,
			WarmupMs:  c.cfg.WarmupMs,
			TimeoutMs: c.cfg.TimeoutMs,
			Fidelity:  sp.fidelity,
		}
		t0 := c.mono.MonoNow()
		var firstNs atomic.Int64
		_, source, err := c.client.Campaign(ctx, req, func(int, []byte, string) {
			// The first cell to land stamps the first-result latency;
			// CompareAndSwap keeps later cells from moving it.
			firstNs.CompareAndSwap(0, int64(clock.MonoSince(c.mono, t0))|1)
		})
		if err != nil {
			return callResult{status: streamErrStatus(err), campaign: true}
		}
		return callResult{status: http.StatusOK, source: source, campaign: true, first: time.Duration(firstNs.Load())}
	}
	req := &wire.LoadRequest{
		Page:      sp.page,
		Governor:  sp.governor,
		Seed:      sp.seed,
		WarmupMs:  c.cfg.WarmupMs,
		MaxLoadMs: c.cfg.MaxLoadMs,
		TimeoutMs: c.cfg.TimeoutMs,
		Fidelity:  sp.fidelity,
	}
	_, source, err := c.client.Load(ctx, req)
	if err != nil {
		return callResult{status: streamErrStatus(err)}
	}
	return callResult{status: http.StatusOK, source: source}
}

// streamErrStatus maps a stream call failure onto the status-class
// tally: a structured server error keeps its HTTP status, everything
// else (dead conn, draining, context) counts as a network error.
func streamErrStatus(err error) int {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Status
	}
	return -1
}

func (c *streamCaller) close() { _ = c.client.Close() }

// --- run loop ---------------------------------------------------------

// transportTally is one transport run's accumulation.
type transportTally struct {
	ctrs   counters
	hist   *telemetry.Histogram
	hFirst *telemetry.Histogram
	hFull  *telemetry.Histogram
}

// Run drives the target for cfg.Duration per selected transport and
// returns the Report. ctx cancellation stops the run early (the
// partial report is still returned when at least one request
// completed).
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.BaseURL == "" {
		return Report{}, errors.New("loadgen: BaseURL is required")
	}
	switch cfg.Transport {
	case "":
		cfg.Transport = TransportJSON
	case TransportJSON, TransportStream, TransportBoth:
	default:
		return Report{}, fmt.Errorf("loadgen: unknown transport %q (json|stream|both)", cfg.Transport)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if len(cfg.Pages) == 0 {
		cfg.Pages = []string{"Alipay"}
	}
	if len(cfg.Governors) == 0 {
		cfg.Governors = []string{"interactive"}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	mono := clock.MonoOr(cfg.Mono)
	log := cfg.Log.Module("doraload")

	mode := "closed"
	if cfg.QPS > 0 {
		mode = "open"
	}

	var transports []string
	switch cfg.Transport {
	case TransportBoth:
		transports = []string{TransportJSON, TransportStream}
	default:
		transports = []string{cfg.Transport}
	}

	rep := Report{
		Schema:       Schema,
		Date:         time.Now().UTC().Format(time.RFC3339),
		Go:           runtime.Version(),
		Target:       cfg.BaseURL,
		Mode:         mode,
		Concurrency:  cfg.Concurrency,
		QPS:          cfg.QPS,
		CampaignFrac: cfg.CampaignFrac,
		RepeatFrac:   cfg.RepeatFrac,
		FidelityFrac: cfg.FidelityFrac,
		SourcesNote:  SourcesNote,
		Transports:   map[string]*TransportReport{},
	}
	for _, transport := range transports {
		tr, err := runTransport(ctx, &cfg, transport, mono, log)
		if err != nil {
			return Report{}, err
		}
		rep.Transports[transport] = tr
	}
	if j, s := rep.Transports[TransportJSON], rep.Transports[TransportStream]; j != nil && s != nil {
		cmp := &Comparison{}
		if j.ThroughputRPS > 0 {
			cmp.ThroughputGain = s.ThroughputRPS / j.ThroughputRPS
		}
		if s.Latency.P50Ms > 0 {
			cmp.P50Speedup = j.Latency.P50Ms / s.Latency.P50Ms
		}
		if s.Latency.P99Ms > 0 {
			cmp.P99Speedup = j.Latency.P99Ms / s.Latency.P99Ms
		}
		if j.CampaignFirstResult != nil && s.CampaignFirstResult != nil && s.CampaignFirstResult.P50Ms > 0 {
			cmp.FirstResultSpeedup = j.CampaignFirstResult.P50Ms / s.CampaignFirstResult.P50Ms
		}
		rep.Comparison = cmp
	}
	return rep, nil
}

// runTransport measures one transport for cfg.Duration with a fresh
// deterministic mixer, so every transport sees the identical request
// sequence.
func runTransport(ctx context.Context, cfg *Config, transport string, mono clock.MonoClock, log *obslog.Logger) (*TransportReport, error) {
	log.Info().
		Str("target", cfg.BaseURL).
		Str("transport", transport).
		Str("mode", map[bool]string{true: "open", false: "closed"}[cfg.QPS > 0]).
		Int("concurrency", cfg.Concurrency).
		Float("qps", cfg.QPS).
		Dur("duration_ms", cfg.Duration).
		Msg("load generation starting")

	var cl caller
	switch transport {
	case TransportJSON:
		client := cfg.Client
		if client == nil {
			client = &http.Client{Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency * 2,
				MaxIdleConnsPerHost: cfg.Concurrency * 2,
			}}
		}
		cl = &jsonCaller{client: client, baseURL: cfg.BaseURL, cfg: cfg}
	case TransportStream:
		sc, err := dialStream(ctx, cfg, mono)
		if err != nil {
			return nil, fmt.Errorf("loadgen: dial stream transport: %w", err)
		}
		cl = sc
	}
	defer cl.close()

	// One histogram set, same bucket code as the daemon: 0.2 ms up to
	// ~20 min with 1.35x resolution.
	reg := telemetry.NewRegistry()
	buckets := telemetry.ExponentialBuckets(0.0002, 1.35, 52)
	tally := &transportTally{
		hist:   reg.Histogram("doraload_request_seconds", "client-observed request latency", buckets),
		hFirst: reg.Histogram("doraload_campaign_first_seconds", "client-observed latency to first campaign result", buckets),
		hFull:  reg.Histogram("doraload_campaign_full_seconds", "client-observed latency to full campaign result", buckets),
	}

	mx := newMixer(cfg)
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := mono.MonoNow()

	fire := func() {
		sp := mx.next()
		t0 := mono.MonoNow()
		res := cl.do(runCtx, sp)
		lat := clock.MonoSince(mono, t0)
		// Requests cut off by the end of the run window are not
		// failures; drop them from the tally.
		if res.status == -1 && runCtx.Err() != nil {
			return
		}
		ctrs := &tally.ctrs
		ctrs.requests.Add(1)
		tally.hist.Observe(lat.Seconds())
		if res.campaign && res.status == http.StatusOK {
			tally.hFull.Observe(lat.Seconds())
			first := res.first
			if first <= 0 {
				first = lat // one-blob transport: first result IS the full result
			}
			tally.hFirst.Observe(first.Seconds())
		}
		for {
			old := ctrs.maxNs.Load()
			if int64(lat) <= old || ctrs.maxNs.CompareAndSwap(old, int64(lat)) {
				break
			}
		}
		switch {
		case res.status == -1:
			ctrs.status[4].Add(1)
			ctrs.errs.Add(1)
		case res.status >= 200 && res.status < 600:
			ctrs.status[res.status/100-2].Add(1)
			if res.status >= 400 {
				ctrs.errs.Add(1)
			}
		}
		// Source accounting over every 2xx response: answers without a
		// recognizable provenance land in "none" instead of silently
		// shrinking the denominator (the v1 bug).
		if res.status >= 200 && res.status < 300 {
			i, ok := sourceIndex[res.source]
			if !ok {
				i = sourceIndex["none"]
			}
			ctrs.sources[i].Add(1)
		}
	}

	var wg sync.WaitGroup
	if cfg.QPS > 0 {
		// Open loop: a ticker schedules arrivals; workers drain the
		// token channel. A full channel means the target (plus our
		// concurrency cap) cannot absorb the offered rate — count the
		// dropped tick instead of silently degrading to closed loop.
		tokens := make(chan struct{}, cfg.Concurrency)
		for i := 0; i < cfg.Concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range tokens {
					fire()
				}
			}()
		}
		interval := time.Duration(float64(time.Second) / cfg.QPS)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
	arrivals:
		for {
			select {
			case <-runCtx.Done():
				break arrivals
			case <-ticker.C:
				select {
				case tokens <- struct{}{}:
				default:
					tally.ctrs.missed.Add(1)
				}
			}
		}
		ticker.Stop()
		close(tokens)
	} else {
		// Closed loop: every worker keeps exactly one request in
		// flight until the window closes.
		for i := 0; i < cfg.Concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					fire()
				}
			}()
		}
	}
	wg.Wait()
	elapsed := clock.MonoSince(mono, start)

	ctrs := &tally.ctrs
	requests := ctrs.requests.Load()
	if requests == 0 {
		return nil, fmt.Errorf("loadgen: no %s requests completed inside the run window (target down or window too short)", transport)
	}

	summary := func(h *telemetry.Histogram, maxMs float64) LatencySummary {
		toMs := func(s float64) float64 { return s * 1e3 }
		return LatencySummary{
			P50Ms:  toMs(h.Quantile(0.50)),
			P90Ms:  toMs(h.Quantile(0.90)),
			P95Ms:  toMs(h.Quantile(0.95)),
			P99Ms:  toMs(h.Quantile(0.99)),
			MeanMs: toMs(h.Sum() / float64(h.Count())),
			MaxMs:  maxMs,
		}
	}
	tr := &TransportReport{
		Transport:     transport,
		DurationS:     elapsed.Seconds(),
		Requests:      requests,
		Errors:        ctrs.errs.Load(),
		MissedTicks:   ctrs.missed.Load(),
		ThroughputRPS: float64(requests) / elapsed.Seconds(),
		Latency:       summary(tally.hist, float64(ctrs.maxNs.Load())/1e6),
		Status:        map[string]uint64{},
		Sources:       map[string]uint64{},
	}
	if tally.hFull.Count() > 0 {
		// MaxMs for the campaign summaries reuses the quantile tail:
		// the per-class true max is not tracked separately.
		first := summary(tally.hFirst, tally.hFirst.Quantile(1)*1e3)
		full := summary(tally.hFull, tally.hFull.Quantile(1)*1e3)
		tr.CampaignFirstResult = &first
		tr.CampaignFull = &full
	}
	for i, class := range [...]string{"2xx", "3xx", "4xx", "5xx", "network_error"} {
		if n := ctrs.status[i].Load(); n > 0 {
			tr.Status[class] = n
		}
	}
	var answered uint64
	for i, src := range sourceKeys {
		n := ctrs.sources[i].Load()
		if n > 0 {
			tr.Sources[src] = n
		}
		answered += n
	}
	if answered > 0 {
		tr.DedupRate = float64(tr.Sources["dedup"]) / float64(answered)
		tr.CacheHitRate = float64(tr.Sources["cache"]) / float64(answered)
	}
	log.Info().
		Str("transport", transport).
		Uint64("requests", requests).
		Uint64("errors", tr.Errors).
		Float("throughput_rps", tr.ThroughputRPS).
		Float("p50_ms", tr.Latency.P50Ms).
		Float("p99_ms", tr.Latency.P99Ms).
		Msg("load generation finished")
	return tr, nil
}
