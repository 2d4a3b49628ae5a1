// Package harness boots a full dorad cluster inside one test process:
// N real serve.Server nodes (the exact daemon serving path — admission,
// singleflight, runcache, drain) behind httptest listeners, fronted by
// a cluster.Gateway on its own listener. Each node sits behind a fault
// proxy that can kill it (sever TCP, fail new connections), hang it
// (handlers and stream writes block until released), burst failures,
// or inject latency — on the JSON path and on the wire stream alike —
// so e2e tests drive real network round trips through real failures,
// all under -race, with no subprocesses and no real daemons.
//
// Probe cadence is manual: the gateway is built with no background
// probe loop and a locked manual clock, and tests step membership with
// ProbeRounds(k) — each round is one synchronous probe of every node —
// so eviction-after-K-failures and rejoin tests are exact, not
// sleep-and-hope.
package harness

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dora/internal/clock"
	"dora/internal/cluster"
	"dora/internal/serve"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
)

// Options configures a test cluster. The zero value is a usable
// default: NexusFive workers, the gateway's default (stream)
// transport, fail threshold 3.
type Options struct {
	// Device is the simulated device on every worker (zero value =
	// soc.NexusFive(), like serve.Config).
	Device soc.Config
	// Transport selects the gateway→worker transport:
	// cluster.TransportStream (default) or cluster.TransportJSON.
	Transport string
	// FailThreshold is the gateway's consecutive-failure eviction
	// threshold (0 = cluster default of 3).
	FailThreshold int
	// Fanout bounds the gateway's concurrent campaign cells (0 =
	// pool default).
	Fanout int
	// ForwardTimeout is the gateway's per-attempt forward deadline
	// (0 = none). Set it when testing latency-injection re-routes.
	ForwardTimeout time.Duration
	// ProbeTimeout bounds each health probe (0 = 250ms — short, so
	// hung-node tests don't stall the suite).
	ProbeTimeout time.Duration
	// Serve mutates node i's serve.Config before construction —
	// the hook point for per-node caches, hooks, and concurrency.
	Serve func(i int, cfg *serve.Config)
}

// Node is one in-process dorad worker.
type Node struct {
	// Name is the node's routing identity ("w0", "w1", ...).
	Name string
	// Server is the real serving layer (drain it, read its stats).
	Server *serve.Server
	// TS is the node's listener; requests pass through the fault
	// proxy first.
	TS *httptest.Server

	faults  *faults
	tracker *connTracker
}

// Cluster is N nodes plus a gateway, all live on loopback.
type Cluster struct {
	t     testing.TB
	Nodes []*Node
	// Gateway is the routing core (membership assertions).
	Gateway *cluster.Gateway
	// GW is the gateway's listener; GW.URL is what clients hit.
	GW *httptest.Server
	// Clock is the manual probe clock; ProbeRounds advances it.
	Clock *LockedManual

	probeInterval time.Duration
}

// LockedManual is a clock.Manual safe for concurrent use: membership
// stamps probe times from many goroutines while the test goroutine
// advances it between rounds.
type LockedManual struct {
	mu sync.Mutex
	m  *clock.Manual
}

// Now implements clock.Clock.
func (l *LockedManual) Now() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Now()
}

// Since implements clock.Clock.
func (l *LockedManual) Since(t time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Since(t)
}

// Advance moves the clock forward by d.
func (l *LockedManual) Advance(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.Advance(d)
}

// New boots a cluster of n workers and a gateway, registering full
// teardown (release hangs, drain every node) on t.Cleanup. The
// gateway is pinned to the device fingerprint up front, so placement
// is deterministic from the first request — no probe round needed.
func New(t testing.TB, n int, opts Options) *Cluster {
	t.Helper()
	if n <= 0 {
		t.Fatalf("harness: cluster of %d nodes", n)
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 250 * time.Millisecond
	}
	c := &Cluster{
		t:             t,
		Clock:         &LockedManual{m: clock.NewManualAt(time.Unix(1_700_000_000, 0))},
		probeInterval: 2 * time.Second,
	}

	members := make([]cluster.Member, n)
	for i := 0; i < n; i++ {
		cfg := serve.Config{
			Device:  opts.Device,
			Metrics: telemetry.NewRegistry(),
		}
		if opts.Serve != nil {
			opts.Serve(i, &cfg)
		}
		node := &Node{
			Name:   fmt.Sprintf("w%d", i),
			Server: serve.NewServer(cfg),
			faults: newFaults(),
		}
		// The listener is wrapped before starting so Kill can sever
		// every connection — including stream connections the HTTP
		// server stops tracking once they are hijacked — and so the
		// other faults reach those streams too.
		node.TS = httptest.NewUnstartedServer(node.faults.middleware(node.Server.Handler()))
		node.tracker = newConnTracker(node.TS.Listener, node.faults)
		node.TS.Listener = node.tracker
		node.TS.Config.ConnState = node.tracker.connState
		node.TS.Start()
		members[i] = cluster.Member{Name: node.Name, URL: node.TS.URL}
		c.Nodes = append(c.Nodes, node)
	}

	device := opts.Device
	if device.Cores == 0 {
		device = soc.NexusFive()
	}
	gw, err := cluster.NewGateway(cluster.Config{
		Members:        members,
		Transport:      opts.Transport,
		Fingerprint:    sim.ConfigFingerprint(device),
		FailThreshold:  opts.FailThreshold,
		ProbeTimeout:   opts.ProbeTimeout,
		ForwardTimeout: opts.ForwardTimeout,
		Fanout:         opts.Fanout,
		Metrics:        telemetry.NewRegistry(),
		Clock:          c.Clock,
	})
	if err != nil {
		t.Fatalf("harness: gateway: %v", err)
	}
	c.Gateway = gw
	c.GW = httptest.NewServer(gw.Handler())

	t.Cleanup(func() {
		// Unblock anything a test left hanging or sleeping, then tear
		// down front to back so nodes drain with no traffic arriving.
		for _, node := range c.Nodes {
			node.faults.releaseHang()
			node.faults.setLatency(0)
		}
		c.GW.Close()
		gw.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, node := range c.Nodes {
			node.TS.Close()
			if err := node.Server.Drain(ctx); err != nil {
				t.Errorf("harness: drain %s: %v", node.Name, err)
			}
		}
	})
	return c
}

// URL returns the gateway base URL.
func (c *Cluster) URL() string { return c.GW.URL }

// ProbeRounds advances the manual clock by one probe interval and
// runs one synchronous probe round, k times — the deterministic
// stand-in for the production ticker loop.
func (c *Cluster) ProbeRounds(k int) {
	c.t.Helper()
	for i := 0; i < k; i++ {
		c.Clock.Advance(c.probeInterval)
		c.Gateway.ProbeOnce(context.Background())
	}
}

// node bounds-checks an index.
func (c *Cluster) node(i int) *Node {
	c.t.Helper()
	if i < 0 || i >= len(c.Nodes) {
		c.t.Fatalf("harness: node %d of %d", i, len(c.Nodes))
	}
	return c.Nodes[i]
}

// Kill severs node i: every in-flight response's connection is closed
// mid-stream and every new connection is accepted then dropped
// without a byte — the closest loopback gets to a crashed process
// whose port still answers SYN. The serve.Server itself keeps
// running, so Revive restores the node bit-for-bit (cache intact).
func (c *Cluster) Kill(i int) {
	n := c.node(i)
	n.faults.setKilled(true)
	n.tracker.closeAll()
	n.TS.CloseClientConnections()
}

// Revive undoes Kill: new connections reach the node again. Probes
// rejoin it on their next round.
func (c *Cluster) Revive(i int) { c.node(i).faults.setKilled(false) }

// Hang makes node i accept requests and then block them (including
// health probes), and block every write on its open streams, until
// ReleaseHang — a live-locked process: TCP up, nothing answering.
func (c *Cluster) Hang(i int) { c.node(i).faults.hang() }

// ReleaseHang unblocks a hung node; blocked requests resume and
// complete normally.
func (c *Cluster) ReleaseHang(i int) { c.node(i).faults.releaseHang() }

// FailNext makes node i fail its next k requests — an injected fault
// burst in front of a healthy process. An HTTP request is answered with
// a bare (non-JSON) 500; a request arriving on an open stream severs
// that stream.
func (c *Cluster) FailNext(i, k int) { c.node(i).faults.failNext(k) }

// SetLatency delays every response and every stream write from node i
// by d (0 restores). Pair with Options.ForwardTimeout to test
// slow-worker re-routes.
func (c *Cluster) SetLatency(i int, d time.Duration) { c.node(i).faults.setLatency(d) }

// Drain puts node i into real graceful drain: it refuses new work
// with 503 + Retry-After while finishing in-flight simulations,
// exactly like a dorad that caught SIGTERM.
func (c *Cluster) Drain(i int) { c.node(i).Server.BeginDrain() }
