package harness

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// faults is one node's injectable failure state, applied by a
// middleware in front of the real serve handler and, for the wire
// stream, at the node's hijacked connections. All knobs are safe for
// concurrent use and take effect on the next request or stream write.
type faults struct {
	mu        sync.Mutex
	killed    bool
	hangCh    chan struct{} // non-nil while hanging; closed to release
	failLeft  int
	latency   time.Duration
	latencyCh chan struct{} // closed when latency is (re)set, waking sleepers
}

func newFaults() *faults { return &faults{latencyCh: make(chan struct{})} }

func (f *faults) setKilled(v bool) {
	f.mu.Lock()
	f.killed = v
	f.mu.Unlock()
}

func (f *faults) hang() {
	f.mu.Lock()
	if f.hangCh == nil {
		f.hangCh = make(chan struct{})
	}
	f.mu.Unlock()
}

func (f *faults) releaseHang() {
	f.mu.Lock()
	ch := f.hangCh
	f.hangCh = nil
	f.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

func (f *faults) failNext(k int) {
	f.mu.Lock()
	f.failLeft = k
	f.mu.Unlock()
}

// setLatency replaces the injected delay; requests already sleeping
// under the old value are woken (they proceed normally), so teardown
// never waits out a fault.
func (f *faults) setLatency(d time.Duration) {
	f.mu.Lock()
	f.latency = d
	old := f.latencyCh
	f.latencyCh = make(chan struct{})
	f.mu.Unlock()
	close(old)
}

// snapshot atomically reads the state one request acts under,
// consuming one injected failure if armed.
func (f *faults) snapshot() (killed bool, hangCh chan struct{}, inject bool, latency time.Duration, latencyCh chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failLeft > 0 {
		f.failLeft--
		inject = true
	}
	return f.killed, f.hangCh, inject, f.latency, f.latencyCh
}

// takeFailure consumes one injected failure, reporting whether one was
// armed.
func (f *faults) takeFailure() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failLeft == 0 {
		return false
	}
	f.failLeft--
	return true
}

// delays reads the hang and latency a stream write waits under.
func (f *faults) delays() (hangCh chan struct{}, latency time.Duration, latencyCh chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hangCh, f.latency, f.latencyCh
}

// waitHang blocks until a hang is released (no-op when hangCh is nil);
// false means done closed first.
func waitHang(hangCh chan struct{}, done <-chan struct{}) bool {
	if hangCh == nil {
		return true
	}
	select {
	case <-hangCh:
		return true
	case <-done:
		return false
	}
}

// waitLatency sleeps out an injected latency, cut short when the
// latency is reset; false means done closed first.
func waitLatency(latency time.Duration, latencyCh chan struct{}, done <-chan struct{}) bool {
	if latency <= 0 {
		return true
	}
	timer := time.NewTimer(latency)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-latencyCh:
	case <-done:
		return false
	}
	return true
}

// middleware wraps the node's real handler with the fault gates, in
// crash-first order: a killed node never hangs or injects.
func (f *faults) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		killed, hangCh, inject, latency, latencyCh := f.snapshot()
		if killed {
			// Drop the connection without a response byte, like a
			// crashed process: hijack if the transport allows, else
			// panic with ErrAbortHandler (net/http closes the conn
			// without replying).
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		if !waitHang(hangCh, r.Context().Done()) {
			return
		}
		if inject {
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		if !waitLatency(latency, latencyCh, r.Context().Done()) {
			return
		}
		next.ServeHTTP(w, r)
	})
}

// connTracker wraps a node's listener and remembers every accepted
// connection, including ones the HTTP server no longer tracks after a
// protocol upgrade hijacks them (the wire stream transport). Kill
// closes them all — a crashed process severs its hijacked streams too,
// and httptest.CloseClientConnections cannot reach those. The node's
// faults also act on a hijacked connection directly, since its frames
// never pass the middleware.
type connTracker struct {
	net.Listener
	faults *faults
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
}

func newConnTracker(l net.Listener, f *faults) *connTracker {
	return &connTracker{Listener: l, faults: f, conns: make(map[net.Conn]struct{})}
}

func (ct *connTracker) Accept() (net.Conn, error) {
	c, err := ct.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &trackedConn{Conn: c, ct: ct, closed: make(chan struct{})}
	ct.mu.Lock()
	ct.conns[tc] = struct{}{}
	ct.mu.Unlock()
	return tc, nil
}

// connState is the node's http.Server ConnState hook: it marks a
// connection the server hands to a protocol upgrade as a stream.
func (ct *connTracker) connState(c net.Conn, cs http.ConnState) {
	if tc, ok := c.(*trackedConn); ok && cs == http.StateHijacked {
		tc.stream.Store(true)
	}
}

// closeAll severs every connection accepted so far.
func (ct *connTracker) closeAll() {
	ct.mu.Lock()
	conns := make([]net.Conn, 0, len(ct.conns))
	for c := range ct.conns {
		conns = append(conns, c)
	}
	ct.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (ct *connTracker) forget(c net.Conn) {
	ct.mu.Lock()
	delete(ct.conns, c)
	ct.mu.Unlock()
}

// errInjected is what a stream read returns when an injected failure
// severs the connection.
var errInjected = errors.New("harness: injected fault severed the stream")

type trackedConn struct {
	net.Conn
	ct *connTracker
	// stream is set once the connection was hijacked for the wire
	// stream; only then do reads and writes meet the faults.
	stream    atomic.Bool
	closeOnce sync.Once
	closed    chan struct{} // closed by Close, waking a held write
}

// Read severs a stream when a request arrives on it while an injected
// failure is armed — the stream's analogue of a bare 500.
func (c *trackedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.stream.Load() && c.ct.faults.takeFailure() {
		c.Close()
		return 0, errInjected
	}
	return n, err
}

// Write holds a stream's outgoing frames under an injected hang or
// latency, as the middleware holds an HTTP response.
func (c *trackedConn) Write(p []byte) (int, error) {
	if c.stream.Load() {
		hangCh, latency, latencyCh := c.ct.faults.delays()
		if !waitHang(hangCh, c.closed) || !waitLatency(latency, latencyCh, c.closed) {
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(p)
}

func (c *trackedConn) Close() error {
	c.ct.forget(c)
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
