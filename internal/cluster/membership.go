package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dora/internal/clock"
)

// State is a member's placement eligibility.
type State uint8

const (
	// StateAlive members receive new placements.
	StateAlive State = iota
	// StateDraining members answered their last probe but reported a
	// graceful drain: they finish in-flight work and are excluded from
	// new placement. A later healthy probe (a restarted process on the
	// same address) rejoins them.
	StateDraining
	// StateDead members failed FailThreshold consecutive probes (or
	// reported a conflicting device fingerprint) and are excluded from
	// placement until a probe succeeds again.
	StateDead
)

// String returns the state name used in snapshots, logs, and metrics.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Member is one configured worker: Name is its stable routing
// identity (feeding HRW scores), URL its dorad base address. Keeping
// the two distinct means a worker can move ports without reshuffling
// every key, though the default wiring uses the URL as the name.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Status is the probed view of one member.
type Status struct {
	Member
	State State `json:"-"`
	// StateName is State rendered for JSON snapshots.
	StateName string `json:"state"`
	// Fails counts consecutive probe failures (reset by any success).
	Fails int `json:"fails,omitempty"`
	// Fingerprint is the device fingerprint the member's /healthz
	// reported ("" until first contact).
	Fingerprint string `json:"fingerprint,omitempty"`
	// LastProbe is when the member was last probed (zero until then).
	LastProbe time.Time `json:"-"`
}

// Transition describes one membership state change, delivered to the
// OnChange callback outside the membership lock.
type Transition struct {
	Name     string
	From, To State
}

// Membership tracks the probed state of a static member list. All
// methods are safe for concurrent use; the OnChange callback (metrics,
// logging) is always invoked after the internal lock is released, so
// it may call back into the Membership freely.
type Membership struct {
	failThreshold int
	clk           clock.Clock
	onChange      func(Transition)

	mu      sync.RWMutex
	order   []string // member names, sorted once at construction
	members map[string]*Status
}

// NewMembership builds a Membership over members (duplicate names are
// collapsed, first URL wins). Every member starts StateAlive: the
// static list is a claim the workers exist, and an optimistic start
// lets the gateway serve before the first probe round lands —
// forwarding errors and probes then refine the picture. failThreshold
// <= 0 defaults to 3.
func NewMembership(members []Member, failThreshold int, clk clock.Clock, onChange func(Transition)) *Membership {
	if failThreshold <= 0 {
		failThreshold = 3
	}
	m := &Membership{
		failThreshold: failThreshold,
		clk:           clock.Or(clk),
		onChange:      onChange,
		members:       make(map[string]*Status, len(members)),
	}
	for _, mem := range members {
		if mem.Name == "" {
			mem.Name = mem.URL
		}
		if _, dup := m.members[mem.Name]; dup {
			continue
		}
		m.members[mem.Name] = &Status{Member: mem, State: StateAlive}
		m.order = append(m.order, mem.Name)
	}
	sort.Strings(m.order)
	return m
}

// Names returns every configured member name, sorted.
func (m *Membership) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.order...)
}

// Live returns the names currently eligible for placement (alive, not
// draining, not evicted), sorted. The slice is fresh on every call.
func (m *Membership) Live() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	live := make([]string, 0, len(m.order))
	for _, name := range m.order {
		if m.members[name].State == StateAlive {
			live = append(live, name)
		}
	}
	return live
}

// URL resolves a member name to its base URL.
func (m *Membership) URL(name string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.members[name]
	if !ok {
		return "", false
	}
	return st.URL, true
}

// Snapshot returns a copy of every member's status, sorted by name:
// the GET /v1/cluster body and the gateway's health check.
func (m *Membership) Snapshot() []Status {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Status, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.render(m.members[name]))
	}
	return out
}

// render copies a status for external eyes; m.mu must be held.
func (m *Membership) render(st *Status) Status {
	cp := *st
	cp.StateName = st.State.String()
	return cp
}

// ReportAlive records a healthy contact (probe success or forwarding
// success): consecutive failures reset and an evicted or draining
// member rejoins placement.
func (m *Membership) ReportAlive(name, fingerprint string) {
	m.transition(name, StateAlive, fingerprint, false)
}

// ReportDraining records a probe that found the member up but
// draining: it leaves placement without accumulating failures, so a
// long drain never turns into an eviction flap.
func (m *Membership) ReportDraining(name, fingerprint string) {
	m.transition(name, StateDraining, fingerprint, false)
}

// ReportFailure records a failed contact. The member is evicted
// (StateDead) once failThreshold consecutive failures accumulate;
// transport-level forwarding errors call this too, so a dead node is
// typically evicted by traffic before the prober confirms it.
// It reports whether the member is now evicted.
func (m *Membership) ReportFailure(name string) bool {
	return m.transition(name, StateDead, "", true)
}

// transition is the single state-machine step behind every Report*.
// It computes the change under the lock and invokes OnChange after
// releasing it (the callback logs and counts, and must be free to call
// back in). dead reports whether the member ended the call evicted.
func (m *Membership) transition(name string, to State, fingerprint string, failure bool) (dead bool) {
	var tr *Transition
	m.mu.Lock()
	st, ok := m.members[name]
	if ok {
		st.LastProbe = m.clk.Now()
		from := st.State
		if failure {
			st.Fails++
			if st.Fails >= m.failThreshold {
				st.State = StateDead
			}
		} else {
			st.Fails = 0
			st.State = to
			if fingerprint != "" {
				st.Fingerprint = fingerprint
			}
		}
		if st.State != from {
			tr = &Transition{Name: name, From: from, To: st.State}
		}
		dead = st.State == StateDead
	}
	onChange := m.onChange
	m.mu.Unlock()
	if tr != nil && onChange != nil {
		onChange(*tr)
	}
	return dead
}

// --- probing ----------------------------------------------------------

// healthzBody is the subset of a worker's GET /healthz response the
// prober reads.
type healthzBody struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	Fingerprint string `json:"fingerprint"`
}

// Prober drives the membership state machine from workers' /healthz
// endpoints. It has no internal timer: ProbeOnce runs exactly one
// round, so production wraps it in a ticker (cmd/doragate) while the
// test harness steps rounds manually for deterministic cadence.
type Prober struct {
	ms      *Membership
	client  *http.Client
	timeout time.Duration
	// wantFingerprint, when non-empty, is the device fingerprint every
	// worker must report: a mismatched worker simulates a different
	// device and would serve wrong results, so it is treated as a
	// probe failure (and evicted like one).
	wantFingerprint func() string
	// onMismatch is told about fingerprint conflicts (for logging).
	onMismatch func(name, got, want string)
}

// NewProber builds a Prober over ms. timeout bounds each member's
// probe (default 1 s). wantFingerprint (optional) supplies the
// expected device fingerprint at probe time; onMismatch (optional)
// observes conflicts.
func NewProber(ms *Membership, client *http.Client, timeout time.Duration, wantFingerprint func() string, onMismatch func(name, got, want string)) *Prober {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	return &Prober{ms: ms, client: client, timeout: timeout, wantFingerprint: wantFingerprint, onMismatch: onMismatch}
}

// ProbeOnce probes every configured member concurrently and applies
// the results, returning when the whole round has landed.
func (p *Prober) ProbeOnce(ctx context.Context) {
	names := p.ms.Names()
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			p.probeMember(ctx, name)
		}(name)
	}
	wg.Wait()
}

// probeMember probes one member and reports the outcome.
func (p *Prober) probeMember(ctx context.Context, name string) {
	url, ok := p.ms.URL(name)
	if !ok {
		return
	}
	pctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		p.ms.ReportFailure(name)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.ms.ReportFailure(name)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if err != nil {
		p.ms.ReportFailure(name)
		return
	}
	var hb healthzBody
	// A draining dorad answers 503 with a parsable body, so the body is
	// decoded regardless of status; only an undecodable response (a
	// proxy error page, a fault-injected 500) counts as a failure.
	if jsonErr := json.Unmarshal(body, &hb); jsonErr != nil || hb.Status == "" {
		p.ms.ReportFailure(name)
		return
	}
	if want := p.fingerprintWant(); want != "" && hb.Fingerprint != "" && hb.Fingerprint != want {
		if p.onMismatch != nil {
			p.onMismatch(name, hb.Fingerprint, want)
		}
		p.ms.ReportFailure(name)
		return
	}
	if hb.Draining {
		p.ms.ReportDraining(name, hb.Fingerprint)
		return
	}
	if resp.StatusCode != http.StatusOK {
		p.ms.ReportFailure(name)
		return
	}
	p.ms.ReportAlive(name, hb.Fingerprint)
}

func (p *Prober) fingerprintWant() string {
	if p.wantFingerprint == nil {
		return ""
	}
	return p.wantFingerprint()
}
