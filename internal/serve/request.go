package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/webgen"
	"dora/internal/wire"
)

// Error codes carried in the structured error body. The HTTP status is
// derived from the code, so clients can switch on either.
const (
	CodeBadRequest    = "bad_request"     // 400: malformed JSON or invalid field values
	CodeNotFound      = "not_found"       // 404: unknown page, co-runner, or route
	CodeMethod        = "method"          // 405: wrong HTTP method
	CodeQueueFull     = "queue_full"      // 429: admission queue at capacity
	CodeDraining      = "draining"        // 503: server is shutting down
	CodeDeadline      = "deadline"        // 504: request deadline expired
	CodeClientClosed  = "client_closed"   // 499: client went away mid-request
	CodeInternal      = "internal"        // 500: simulation failure
	CodeModelRequired = "model_required"  // 400: model-based governor without trained models
	CodePayloadLarge  = "payload_too_big" // 413: request body over the limit
	CodeWireVersion   = "wire_version"    // 426: stream handshake version skew
)

// APIError is a structured, user-visible request failure. The type
// lives in internal/wire, whose TypeError frame carries it, so both
// transports refuse with the same value.
type APIError = wire.Error

func errBadRequest(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusNotFound, Code: CodeNotFound, Message: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON envelope every error response carries:
// {"error":{"code":"...","message":"..."}}.
type errorBody struct {
	Err *APIError `json:"error"`
}

// DecodeErrorBody parses the structured error envelope a dorad
// response body carries ({"error":{"code","message"}}), reporting
// false when the body is not one. The gateway uses it to re-emit a
// worker's refusal as a campaign cell error with the worker's own code
// intact.
func DecodeErrorBody(status int, data []byte) (*APIError, bool) {
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Err == nil || eb.Err.Code == "" {
		return nil, false
	}
	eb.Err.Status = status
	return eb.Err, true
}

// CtxErrToAPI maps a request context that ended into its refusal:
// 504 when the deadline expired, 499 when the client went away.
func CtxErrToAPI(ctx context.Context) *APIError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &APIError{Status: http.StatusGatewayTimeout, Code: CodeDeadline, Message: "request deadline expired"}
	}
	return &APIError{Status: 499, Code: CodeClientClosed, Message: "client closed request"}
}

// RequestCtx derives a request's processing context from parent: the
// request's own timeout_ms when set, else defaultTimeout, else no
// deadline at all.
func RequestCtx(parent context.Context, timeoutMs int64, defaultTimeout time.Duration) (context.Context, context.CancelFunc) {
	timeout := time.Duration(timeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	if timeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, timeout)
}

// ReadBody slurps a request body of at most limit bytes; a larger body
// is refused with 413.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *APIError) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &APIError{Status: http.StatusRequestEntityTooLarge, Code: CodePayloadLarge,
				Message: fmt.Sprintf("request body over %d bytes", tooBig.Limit)}
		}
		return nil, errBadRequest("read body: %v", err)
	}
	return data, nil
}

// WriteJSON answers with status and v's JSON encoding.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with apiErr's status and structured envelope,
// mirroring the code in ErrorCodeHeader. A 429 or 503 advertises
// Retry-After: retryAfterSecs, the caller's advisory backoff.
func WriteError(w http.ResponseWriter, apiErr *APIError, retryAfterSecs int) {
	switch apiErr.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	}
	w.Header().Set(ErrorCodeHeader, apiErr.Code)
	WriteJSON(w, apiErr.Status, errorBody{Err: apiErr})
}

// LoadRequest is the JSON body of POST /v1/load. The type lives in
// internal/wire, next to its binary codec, so both transports decode
// into the same struct.
type LoadRequest = wire.LoadRequest

// CampaignRequest is the JSON body of POST /v1/campaign (see
// wire.CampaignRequest).
type CampaignRequest = wire.CampaignRequest

// CampaignCell is one grid cell of a campaign response. Result holds
// the exact bytes POST /v1/load would have returned for the equivalent
// single request (same seed), or Error when that cell failed.
type CampaignCell struct {
	Page     string          `json:"page"`
	CoRunner string          `json:"corunner,omitempty"`
	Governor string          `json:"governor"`
	Seed     int64           `json:"seed"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    *APIError       `json:"error,omitempty"`
}

// CampaignResponse is the JSON body answering POST /v1/campaign.
type CampaignResponse struct {
	Cells []CampaignCell `json:"cells"`
}

// campaignSeedStride spaces the grid-derived per-cell seeds so
// neighboring cells never share RNG streams (the simulator derives
// secondary streams at seed+1).
const campaignSeedStride = 1_000_003

// maxDurationMs bounds every duration field: 10 simulated minutes is
// already far past the 30 s abort cutoff.
const maxDurationMs = 10 * 60 * 1000

// maxTimeoutMs bounds the request-processing deadline (1 hour).
const maxTimeoutMs = 60 * 60 * 1000

// maxCampaignCells bounds the expanded grid of one campaign request.
const maxCampaignCells = 1024

// governorNames are the policies a request may name: the core
// governor table, with "fixed" (freq_mhz) after its model-free names.
var governorNames = func() []string {
	names := core.GovernorNames()
	return slices.Insert(names, slices.IndexFunc(names, core.NeedsModels), "fixed")
}()

// decodeStrict unmarshals one JSON value into v, rejecting unknown
// fields and trailing content.
func decodeStrict(data []byte, v any) *APIError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("invalid JSON body: %v", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errBadRequest("trailing content after JSON body")
	}
	return nil
}

// checkDurationMs validates one millisecond field.
func checkDurationMs(name string, v int64) *APIError {
	if v < 0 {
		return errBadRequest("%s must be >= 0, got %d", name, v)
	}
	if v > maxDurationMs {
		return errBadRequest("%s must be <= %d ms, got %d", name, int64(maxDurationMs), v)
	}
	return nil
}

// DecodeLoadRequest parses and validates a POST /v1/load body,
// returning the normalized request (canonical page/kernel casing,
// explicit governor) or a structured error. It never panics on any
// input — FuzzLoadRequestDecode holds it to that.
func DecodeLoadRequest(data []byte) (LoadRequest, *APIError) {
	return DecodeLoadRequestDefault(data, "")
}

// DecodeLoadRequestDefault is DecodeLoadRequest with a server-level
// default fidelity (dorad -fidelity) substituted when the body omits
// the field. An explicit fidelity in the body always wins.
func DecodeLoadRequestDefault(data []byte, defaultFidelity string) (LoadRequest, *APIError) {
	var req LoadRequest
	if apiErr := decodeStrict(data, &req); apiErr != nil {
		return LoadRequest{}, apiErr
	}
	return normalizeLoadRequest(req, defaultFidelity)
}

// normalizeLoadRequest validates field values and canonicalizes names,
// so equal workloads produce equal (deduplicable) requests. It is the
// one place a request that omits fidelity takes the server default,
// whichever transport decoded it.
func normalizeLoadRequest(req LoadRequest, defaultFidelity string) (LoadRequest, *APIError) {
	if req.Fidelity == "" {
		req.Fidelity = defaultFidelity
	}
	if req.Page == "" {
		return LoadRequest{}, errBadRequest("page is required")
	}
	spec, err := webgen.ByName(req.Page)
	if err != nil {
		return LoadRequest{}, errNotFound("unknown page %q (GET /v1/pages lists the corpus)", req.Page)
	}
	req.Page = spec.Name
	if req.CoRunner != "" {
		k, err := corun.ByName(req.CoRunner)
		if err != nil {
			return LoadRequest{}, errNotFound("unknown co-runner %q (GET /v1/pages lists the kernels)", req.CoRunner)
		}
		req.CoRunner = k.Name
	}
	switch {
	case req.FreqMHz < 0:
		return LoadRequest{}, errBadRequest("freq_mhz must be >= 0, got %d", req.FreqMHz)
	case req.FreqMHz > 0:
		if req.Governor != "" && req.Governor != "fixed" {
			return LoadRequest{}, errBadRequest("freq_mhz conflicts with governor %q; use governor \"fixed\" or omit it", req.Governor)
		}
		if req.FreqMHz > 10_000 {
			return LoadRequest{}, errBadRequest("freq_mhz %d is outside any plausible ladder", req.FreqMHz)
		}
		req.Governor = "fixed"
	case req.Governor == "":
		req.Governor = "interactive"
	case req.Governor == "fixed":
		return LoadRequest{}, errBadRequest("governor \"fixed\" needs freq_mhz > 0")
	}
	if !slices.Contains(governorNames, req.Governor) {
		return LoadRequest{}, errBadRequest("unknown governor %q (choose from %v)", req.Governor, governorNames)
	}
	for _, d := range []struct {
		name string
		v    int64
	}{
		{"deadline_ms", req.DeadlineMs},
		{"decision_interval_ms", req.DecisionIntervalMs},
		{"warmup_ms", req.WarmupMs},
		{"max_load_ms", req.MaxLoadMs},
	} {
		if apiErr := checkDurationMs(d.name, d.v); apiErr != nil {
			return LoadRequest{}, apiErr
		}
	}
	if req.TimeoutMs < 0 || req.TimeoutMs > maxTimeoutMs {
		return LoadRequest{}, errBadRequest("timeout_ms must be in [0, %d], got %d", int64(maxTimeoutMs), req.TimeoutMs)
	}
	if req.AmbientC < -40 || req.AmbientC > 85 {
		return LoadRequest{}, errBadRequest("ambient_c must be in [-40, 85], got %g", req.AmbientC)
	}
	mode, err := fidelity.ParseMode(req.Fidelity)
	if err != nil {
		return LoadRequest{}, errBadRequest("unknown fidelity %q (choose \"exact\" or \"sampled\")", req.Fidelity)
	}
	req.Fidelity = mode.String()
	return req, nil
}

// DecodeCampaignRequestDefault parses and validates a POST /v1/campaign
// body and expands its grid into per-cell load requests with
// grid-derived seeds, substituting the server-level default fidelity
// when the body omits the field (see DecodeLoadRequestDefault). The
// cell order (pages outermost, then corunners, then governors) and each
// cell's seed depend only on the request, never on scheduling.
func DecodeCampaignRequestDefault(data []byte, defaultFidelity string) (CampaignRequest, []LoadRequest, *APIError) {
	var req CampaignRequest
	if apiErr := decodeStrict(data, &req); apiErr != nil {
		return CampaignRequest{}, nil, apiErr
	}
	return expandCampaign(req, defaultFidelity)
}

// expandCampaign validates a decoded campaign request and expands its
// grid — the transport-independent half of campaign decoding, shared
// by the JSON endpoint and the stream handler so both produce the same
// cells, seeds, and errors for the same logical request.
func expandCampaign(req CampaignRequest, defaultFidelity string) (CampaignRequest, []LoadRequest, *APIError) {
	if len(req.Pages) == 0 {
		return CampaignRequest{}, nil, errBadRequest("pages is required and must be non-empty")
	}
	if len(req.CoRunners) == 0 {
		req.CoRunners = []string{""}
	}
	if len(req.Governors) == 0 {
		req.Governors = []string{"interactive"}
	}
	n := len(req.Pages) * len(req.CoRunners) * len(req.Governors)
	if n > maxCampaignCells {
		return CampaignRequest{}, nil, errBadRequest("grid expands to %d cells, limit %d", n, maxCampaignCells)
	}
	if apiErr := checkDurationMs("deadline_ms", req.DeadlineMs); apiErr != nil {
		return CampaignRequest{}, nil, apiErr
	}
	if apiErr := checkDurationMs("warmup_ms", req.WarmupMs); apiErr != nil {
		return CampaignRequest{}, nil, apiErr
	}
	if req.TimeoutMs < 0 || req.TimeoutMs > maxTimeoutMs {
		return CampaignRequest{}, nil, errBadRequest("timeout_ms must be in [0, %d], got %d", int64(maxTimeoutMs), req.TimeoutMs)
	}
	cells := make([]LoadRequest, 0, n)
	i := int64(0)
	for _, page := range req.Pages {
		for _, kern := range req.CoRunners {
			for _, gov := range req.Governors {
				cell, apiErr := normalizeLoadRequest(LoadRequest{
					Page:       page,
					CoRunner:   kern,
					Governor:   gov,
					DeadlineMs: req.DeadlineMs,
					WarmupMs:   req.WarmupMs,
					Seed:       req.Seed + i*campaignSeedStride,
					Fidelity:   req.Fidelity,
				}, defaultFidelity)
				if apiErr != nil {
					return CampaignRequest{}, nil, apiErr
				}
				cells = append(cells, cell)
				i++
			}
		}
	}
	return req, cells, nil
}
