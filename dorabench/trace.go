package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the span that caused this one (0 for
// an operation's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run takes the same code path.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id before the span ends, so children recorded
// first can name it as their parent.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores the span id covering [start, now].
func (t *tracer) record(id, parent, op uint64, name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// reset forgets every span recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// durationsMs returns the durations of every span called name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfMs returns, for each span called name, its duration minus the
// part covered by its children called child.
func (t *tracer) selfMs(name, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Name == child && s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-covered[s.ID])/1e6)
		}
	}
	return out
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanKey carries the caller's span id through a request context, so a
// span recorded deeper in the same request can name its parent.
type spanKey struct{}

type spanCtx struct{ id, op uint64 }

// traceHandler records a span called name around every /v1/load
// request h serves.
func traceHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/load" {
			h.ServeHTTP(w, r)
			return
		}
		start, id := time.Now(), t.newID()
		parent, _ := r.Context().Value(spanKey{}).(spanCtx)
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, spanCtx{id: id, op: parent.op}))
		h.ServeHTTP(w, r)
		t.record(id, parent.id, parent.op, name, start)
	})
}

// traceTransport records a span called name around every /v1/load
// round trip, parented to the span in the request's context.
type traceTransport struct {
	t    *tracer
	name string
	next http.RoundTripper
}

func (tt traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/v1/load" {
		return tt.next.RoundTrip(r)
	}
	start, id := time.Now(), tt.t.newID()
	parent, _ := r.Context().Value(spanKey{}).(spanCtx)
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		tt.t.record(id, parent.id, parent.op, tt.name, start)
		return nil, err
	}
	// The span ends when the caller has read the body and closed it.
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		tt.t.record(id, parent.id, parent.op, tt.name, start)
	}}
	return resp, nil
}

// spanBody records its span when closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
