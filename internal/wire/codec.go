package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Hostile-input caps. The decoders never trust a length they read: any
// string or list over these bounds is a codec error, so a malicious
// frame cannot drive an oversized allocation through a varint prefix.
// maxListLen is looser than serve's maxCampaignCells (1024): a list
// longer than the whole expanded grid can never be valid, so every
// request that would pass serve's validation fits under the cap.
const (
	maxStringLen = 4096
	maxListLen   = 4096
)

// ErrCodec is the sentinel wrapped by every payload-decode failure.
var ErrCodec = errors.New("wire: malformed payload")

// LoadRequest is one measured page load: the JSON body of POST
// /v1/load and the payload of a TypeLoad frame. Durations are integral
// milliseconds; zero fields take the simulator defaults (3 s QoS
// deadline, 500 ms warmup, 30 s abort cutoff, governor-appropriate
// decision interval), so the zero request with just a page is valid
// and deterministic.
type LoadRequest struct {
	// Page is a corpus page name (GET /v1/pages lists them).
	Page string `json:"page"`
	// CoRunner is a co-scheduled kernel name; empty = browser alone.
	CoRunner string `json:"corunner,omitempty"`
	// Governor selects the frequency policy (default "interactive").
	// The model-based governors (DORA, DL, EE, DORA_no_lkg) need the
	// daemon to have been started with trained models.
	Governor string `json:"governor,omitempty"`
	// FreqMHz pins a fixed OPP instead of a governor (rounded up to
	// the nearest ladder step). Only valid with governor "" or "fixed".
	FreqMHz int `json:"freq_mhz,omitempty"`
	// DeadlineMs is the QoS load-time target (0 = 3000).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// DecisionIntervalMs overrides the governor cadence (0 = default).
	DecisionIntervalMs int64 `json:"decision_interval_ms,omitempty"`
	// WarmupMs is the co-runner-only lead-in (0 = 500).
	WarmupMs int64 `json:"warmup_ms,omitempty"`
	// MaxLoadMs aborts a load running past the cutoff (0 = 30000).
	MaxLoadMs int64 `json:"max_load_ms,omitempty"`
	// Seed is the simulation seed; equal requests are deduplicated and
	// byte-identical.
	Seed int64 `json:"seed,omitempty"`
	// AmbientC overrides ambient temperature (0 = 25 degC).
	AmbientC float64 `json:"ambient_c,omitempty"`
	// TimeoutMs bounds request *processing* (queueing + simulation);
	// past it the daemon answers 504 and aborts the simulation. 0 takes
	// the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Fidelity selects the simulation kernel: "exact" (default) or
	// "sampled" (phase-detected fast-forwarding; see DESIGN.md §10).
	// Normalized to the canonical mode name, so "" and "exact" are the
	// same request for dedup and caching, while exact and sampled never
	// share a cache entry.
	Fidelity string `json:"fidelity,omitempty"`
}

// CampaignRequest is the cross product pages x corunners x governors,
// simulated as one batch: the JSON body of POST /v1/campaign and the
// payload of a TypeCampaign frame. Every cell's seed is derived from
// the base seed and the cell's grid index — never from execution order
// — so the response is bit-identical at any worker count.
type CampaignRequest struct {
	Pages     []string `json:"pages"`
	CoRunners []string `json:"corunners,omitempty"` // "" = browser alone; empty list = [""]
	Governors []string `json:"governors,omitempty"` // empty list = ["interactive"]
	// DeadlineMs / WarmupMs / Seed apply to every cell (see LoadRequest).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	WarmupMs   int64 `json:"warmup_ms,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	// TimeoutMs bounds the whole batch.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Fidelity applies to every cell (see LoadRequest.Fidelity).
	Fidelity string `json:"fidelity,omitempty"`
}

// Error is the stream-transport form of serve's error envelope; it
// completes a request id via a TypeError frame and doubles as the
// client-side error value.
type Error struct {
	Status  int
	Code    string
	Message string
}

// Error implements error with the same "code: message" shape the JSON
// error body carries.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s (http %d)", e.Code, e.Message, e.Status)
}

// CampaignSummary is the TypeCampaignEnd payload: how many cells the
// campaign produced and how many of them carry a cell-level error. The
// aggregate provenance travels in the frame's source flags.
type CampaignSummary struct {
	Cells   int
	Errored int
}

// --- append-side helpers -------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// AppendLoadRequest appends the binary encoding of req (leading codec
// version byte, then fields in struct order) and returns the extended
// slice.
func AppendLoadRequest(dst []byte, req *LoadRequest) []byte {
	dst = append(dst, CodecVersion)
	dst = appendString(dst, req.Page)
	dst = appendString(dst, req.CoRunner)
	dst = appendString(dst, req.Governor)
	dst = binary.AppendVarint(dst, int64(req.FreqMHz))
	dst = binary.AppendVarint(dst, req.DeadlineMs)
	dst = binary.AppendVarint(dst, req.DecisionIntervalMs)
	dst = binary.AppendVarint(dst, req.WarmupMs)
	dst = binary.AppendVarint(dst, req.MaxLoadMs)
	dst = binary.AppendVarint(dst, req.Seed)
	dst = binary.AppendUvarint(dst, math.Float64bits(req.AmbientC))
	dst = binary.AppendVarint(dst, req.TimeoutMs)
	dst = appendString(dst, req.Fidelity)
	return dst
}

// AppendCampaignRequest appends the binary encoding of req.
func AppendCampaignRequest(dst []byte, req *CampaignRequest) []byte {
	dst = append(dst, CodecVersion)
	dst = appendStrings(dst, req.Pages)
	dst = appendStrings(dst, req.CoRunners)
	dst = appendStrings(dst, req.Governors)
	dst = binary.AppendVarint(dst, req.DeadlineMs)
	dst = binary.AppendVarint(dst, req.WarmupMs)
	dst = binary.AppendVarint(dst, req.Seed)
	dst = binary.AppendVarint(dst, req.TimeoutMs)
	dst = appendString(dst, req.Fidelity)
	return dst
}

// AppendError appends the binary encoding of e.
func AppendError(dst []byte, e *Error) []byte {
	dst = append(dst, CodecVersion)
	dst = binary.AppendUvarint(dst, uint64(e.Status))
	dst = appendString(dst, e.Code)
	dst = appendString(dst, e.Message)
	return dst
}

// AppendCampaignSummary appends the binary encoding of s.
func AppendCampaignSummary(dst []byte, s *CampaignSummary) []byte {
	dst = append(dst, CodecVersion)
	dst = binary.AppendUvarint(dst, uint64(s.Cells))
	dst = binary.AppendUvarint(dst, uint64(s.Errored))
	return dst
}

// --- decode-side helpers -------------------------------------------------

// decoder consumes a payload front to back, latching the first error;
// every accessor is a no-op once poisoned, so decode functions read
// all fields and check err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCodec, what)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > maxStringLen || n > uint64(len(d.b)) {
		d.fail(what)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) strs(what string) []string {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if n > maxListLen {
		d.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		ss = append(ss, d.str(what))
	}
	return ss
}

// version checks the leading codec-version byte; unknown versions are
// refused (the handshake should have caught the skew already).
func (d *decoder) version() {
	if d.err != nil {
		return
	}
	if len(d.b) == 0 {
		d.fail("missing codec version")
		return
	}
	if d.b[0] != CodecVersion {
		d.err = fmt.Errorf("%w: codec version %d (want %d)", ErrCodec, d.b[0], CodecVersion)
		return
	}
	d.b = d.b[1:]
}

// finish enforces strict framing: trailing bytes after the last field
// are a codec error, never silently ignored.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.b))
	}
	return nil
}

// DecodeLoadRequest decodes a TypeLoad payload.
func DecodeLoadRequest(payload []byte) (LoadRequest, error) {
	d := decoder{b: payload}
	d.version()
	var req LoadRequest
	req.Page = d.str("page")
	req.CoRunner = d.str("corunner")
	req.Governor = d.str("governor")
	req.FreqMHz = int(d.varint("freq_mhz"))
	req.DeadlineMs = d.varint("deadline_ms")
	req.DecisionIntervalMs = d.varint("decision_interval_ms")
	req.WarmupMs = d.varint("warmup_ms")
	req.MaxLoadMs = d.varint("max_load_ms")
	req.Seed = d.varint("seed")
	req.AmbientC = math.Float64frombits(d.uvarint("ambient_c"))
	req.TimeoutMs = d.varint("timeout_ms")
	req.Fidelity = d.str("fidelity")
	if err := d.finish(); err != nil {
		return LoadRequest{}, err
	}
	return req, nil
}

// DecodeCampaignRequest decodes a TypeCampaign payload.
func DecodeCampaignRequest(payload []byte) (CampaignRequest, error) {
	d := decoder{b: payload}
	d.version()
	var req CampaignRequest
	req.Pages = d.strs("pages")
	req.CoRunners = d.strs("corunners")
	req.Governors = d.strs("governors")
	req.DeadlineMs = d.varint("deadline_ms")
	req.WarmupMs = d.varint("warmup_ms")
	req.Seed = d.varint("seed")
	req.TimeoutMs = d.varint("timeout_ms")
	req.Fidelity = d.str("fidelity")
	if err := d.finish(); err != nil {
		return CampaignRequest{}, err
	}
	return req, nil
}

// DecodeError decodes a TypeError payload. Status is bounded to the
// HTTP range so a hostile frame cannot smuggle a nonsense status into
// metrics.
func DecodeError(payload []byte) (Error, error) {
	d := decoder{b: payload}
	d.version()
	var e Error
	status := d.uvarint("status")
	e.Code = d.str("code")
	e.Message = d.str("message")
	if err := d.finish(); err != nil {
		return Error{}, err
	}
	if status < 100 || status > 599 {
		return Error{}, fmt.Errorf("%w: http status %d out of range", ErrCodec, status)
	}
	e.Status = int(status)
	return e, nil
}

// DecodeCampaignSummary decodes a TypeCampaignEnd payload.
func DecodeCampaignSummary(payload []byte) (CampaignSummary, error) {
	d := decoder{b: payload}
	d.version()
	var s CampaignSummary
	cells := d.uvarint("cells")
	errored := d.uvarint("errored")
	if err := d.finish(); err != nil {
		return CampaignSummary{}, err
	}
	if cells > maxListLen || errored > cells {
		return CampaignSummary{}, fmt.Errorf("%w: summary counts %d/%d out of range", ErrCodec, errored, cells)
	}
	s.Cells = int(cells)
	s.Errored = int(errored)
	return s, nil
}
