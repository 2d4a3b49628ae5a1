package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/runcache"
)

// DefaultMaxFrameBytes bounds the payload the client will accept in a
// single frame. Campaign cells and load results are a few KiB; this
// leaves generous headroom without letting a corrupt length prefix
// allocate without bound.
const DefaultMaxFrameBytes = 16 << 20

// ErrDraining reports that the server announced a drain (Goodbye
// frame): in-flight requests still complete, new ones are refused
// locally so the caller can fail over instead of racing the close.
var ErrDraining = errors.New("wire: server is draining")

// ErrClosed reports a request submitted after Close.
var ErrClosed = errors.New("wire: client closed")

// Options configures Dial.
type Options struct {
	// Compress asks the server for per-frame flate compression.
	Compress bool
	// MaxFrameBytes overrides DefaultMaxFrameBytes when positive.
	MaxFrameBytes int64
	// HandshakeTimeout bounds dial + upgrade (default 10s).
	HandshakeTimeout time.Duration
}

// call is one in-flight logical request awaiting its completion frame.
type call struct {
	done    chan struct{}
	onCell  func(index int, cell []byte, source string)
	payload []byte
	source  string
	summary CampaignSummary
	err     error
}

// Client is one long-lived stream connection. All methods are safe for
// concurrent use: requests from any number of goroutines are pipelined
// onto the single connection and demultiplexed by completion id, so
// slow simulations do not head-of-line-block cache hits issued after
// them.
type Client struct {
	conn     net.Conn
	maxFrame int64

	wmu sync.Mutex // serializes frame writes + flushes
	bw  *bufio.Writer

	mu       sync.Mutex
	pending  map[uint64]*call
	nextID   uint64
	closed   bool
	readErr  error
	draining atomic.Bool

	readDone chan struct{}
}

// Dial connects to a dorad base URL (e.g. "http://127.0.0.1:8080"),
// performs the stream upgrade handshake, and starts the read loop.
// Version skew — wire protocol or runcache schema — is an error here,
// never a mid-stream surprise.
func Dial(ctx context.Context, baseURL string, opts Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("wire: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("wire: unsupported scheme %q (stream transport is http-only)", u.Scheme)
	}
	host := u.Host
	if _, _, err := net.SplitHostPort(host); err != nil {
		host = net.JoinHostPort(host, "80")
	}

	timeout := opts.HandshakeTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", host)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", host, err)
	}

	req, err := http.NewRequest(http.MethodGet, u.JoinPath(StreamPath).String(), nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", UpgradeProtocol)
	req.Header.Set(VersionHeader, strconv.Itoa(ProtoVersion))
	req.Header.Set(SchemaHeader, strconv.Itoa(runcache.SchemaVersion))
	if opts.Compress {
		req.Header.Set(CompressHeader, CompressFlate)
	}

	// Bound the whole handshake with one deadline, then clear it: the
	// stream itself is long-lived and must not inherit it.
	deadline := time.Now().Add(timeout)
	if d, ok := dctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	if err := req.Write(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake write: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		// The server refused the upgrade with a JSON error body
		// (version skew, draining); surface status + code.
		code := resp.Header.Get("X-Dora-Error-Code")
		resp.Body.Close()
		conn.Close()
		if code == "" {
			code = "upgrade_refused"
		}
		return nil, &Error{Status: resp.StatusCode, Code: code, Message: "stream upgrade refused"}
	}
	if got := resp.Header.Get("Upgrade"); got != UpgradeProtocol {
		conn.Close()
		return nil, fmt.Errorf("wire: server upgraded to %q, want %q", got, UpgradeProtocol)
	}
	conn.SetDeadline(time.Time{})

	maxFrame := opts.MaxFrameBytes
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	c := &Client{
		conn:     conn,
		maxFrame: maxFrame,
		bw:       bufio.NewWriter(conn),
		pending:  make(map[uint64]*call),
		readDone: make(chan struct{}),
	}
	go c.readLoop(br)
	return c, nil
}

// register allocates an id and parks a call awaiting its completion.
func (c *Client) register(onCell func(int, []byte, string)) (uint64, *call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, c.completionErr()
	}
	if c.draining.Load() {
		return 0, nil, ErrDraining
	}
	c.nextID++
	id := c.nextID
	cl := &call{done: make(chan struct{}), onCell: onCell}
	c.pending[id] = cl
	return id, cl, nil
}

// completionErr is the error pending calls fail with; c.mu must be held.
func (c *Client) completionErr() error {
	if c.readErr != nil {
		return c.readErr
	}
	return ErrClosed
}

func (c *Client) deregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// send writes one request frame and flushes. Client-side requests are
// tiny and latency-bound, so each is flushed immediately; coalescing
// lives on the server's result path where the batching win is.
func (c *Client) send(typ byte, id uint64, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	f := Frame{Type: typ, ID: id}
	//doralint:allow locksafe wmu exists to serialize frame writes on the shared connection; the buffered write+flush IS the critical section
	if err := WriteFrame(c.bw, &f, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// await blocks until the call completes, the context expires, or the
// connection dies.
func (c *Client) await(ctx context.Context, id uint64, cl *call) error {
	select {
	case <-cl.done:
		return cl.err
	case <-ctx.Done():
		c.deregister(id)
		return ctx.Err()
	}
}

// Load runs one load request over the stream and returns the result
// payload — the exact JSON bytes the /v1/load endpoint would have
// written — plus its provenance ("sim", "dedup", "cache").
func (c *Client) Load(ctx context.Context, req *LoadRequest) ([]byte, string, error) {
	id, cl, err := c.register(nil)
	if err != nil {
		return nil, "", err
	}
	if err := c.send(TypeLoad, id, AppendLoadRequest(nil, req)); err != nil {
		c.deregister(id)
		return nil, "", err
	}
	if err := c.await(ctx, id, cl); err != nil {
		return nil, "", err
	}
	return cl.payload, cl.source, nil
}

// Campaign runs a campaign over the stream. onCell (optional) is
// invoked from the read loop once per finished grid cell, in
// completion order, with the cell index, the cell's JSON bytes
// (exactly as they appear in the /v1/campaign response array), and the
// cell's provenance — keep it fast or copy out. The returned summary's
// source flags-derived provenance matches the JSON path's aggregate
// X-Dora-Source header.
func (c *Client) Campaign(ctx context.Context, req *CampaignRequest, onCell func(index int, cell []byte, source string)) (CampaignSummary, string, error) {
	id, cl, err := c.register(onCell)
	if err != nil {
		return CampaignSummary{}, "", err
	}
	if err := c.send(TypeCampaign, id, AppendCampaignRequest(nil, req)); err != nil {
		c.deregister(id)
		return CampaignSummary{}, "", err
	}
	if err := c.await(ctx, id, cl); err != nil {
		return CampaignSummary{}, "", err
	}
	return cl.summary, cl.source, nil
}

// Draining reports whether the server has announced a drain.
func (c *Client) Draining() bool { return c.draining.Load() }

// Close tears down the connection and fails every pending call.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readDone
	if errors.Is(err, net.ErrClosed) {
		err = nil // the read loop closed it first
	}
	return err
}

// failAll poisons the client and completes every pending call with err.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.closed = true
	pending := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	for _, cl := range pending {
		cl.err = err
		close(cl.done)
	}
}

// take removes and returns the call owning id (nil if the caller gave
// up on it already).
func (c *Client) take(id uint64) *call {
	c.mu.Lock()
	cl := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return cl
}

// peek returns the call owning id without completing it.
func (c *Client) peek(id uint64) *call {
	c.mu.Lock()
	cl := c.pending[id]
	c.mu.Unlock()
	return cl
}

// readLoop demultiplexes completion frames onto pending calls until
// the connection dies or the server says goodbye and closes. It closes
// the connection on exit, so a client nobody closes (one dropped after
// a goodbye) holds no socket once the server hangs up.
func (c *Client) readLoop(br *bufio.Reader) {
	defer close(c.readDone)
	defer c.conn.Close()
	for {
		f, payload, err := ReadFrame(br, c.maxFrame)
		if err != nil {
			c.failAll(fmt.Errorf("wire: read: %w", err))
			return
		}
		if f.Flags&FlagCompressed != 0 {
			payload, err = Decompress(payload, c.maxFrame)
			if err != nil {
				c.failAll(err)
				return
			}
		}
		switch f.Type {
		case TypeResult:
			if cl := c.take(f.ID); cl != nil {
				cl.payload = payload
				cl.source = FlagSource(f.Flags)
				close(cl.done)
			}
		case TypeError:
			e, derr := DecodeError(payload)
			if derr != nil {
				c.failAll(derr)
				return
			}
			if cl := c.take(f.ID); cl != nil {
				cl.err = &e
				close(cl.done)
			}
		case TypeCampaignCell:
			if cl := c.peek(f.ID); cl != nil && cl.onCell != nil {
				cl.onCell(int(f.Aux), payload, FlagSource(f.Flags))
			}
		case TypeCampaignEnd:
			s, derr := DecodeCampaignSummary(payload)
			if derr != nil {
				c.failAll(derr)
				return
			}
			if cl := c.take(f.ID); cl != nil {
				cl.summary = s
				cl.source = FlagSource(f.Flags)
				close(cl.done)
			}
		case TypeGoodbye:
			// Drain announcement: in-flight requests keep completing;
			// new submissions fail fast with ErrDraining.
			c.draining.Store(true)
		default:
			c.failAll(fmt.Errorf("wire: unexpected frame type %d from server", f.Type))
			return
		}
	}
}
