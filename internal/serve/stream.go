package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dora/internal/pool"
	"dora/internal/runcache"
	"dora/internal/wire"
)

// This file is the stream transport: the upgrade handshake for
// GET /v1/stream, the per-connection reader that admits pipelined
// binary frames, the write-side collector that coalesces completion
// frames into batched flushes, and the drain hooks that let hijacked
// connections (invisible to http.Server.Shutdown) participate in
// graceful shutdown. Everything behind the frame boundary — admission,
// dedup, runcache, the simulation itself — is the same code the JSON
// endpoints run, so a stream result is byte-identical to the JSON
// path's payload by construction.

// Stream listener hardening defaults (Config overrides).
const (
	// defaultStreamWriteTimeout bounds each batched flush; a client
	// that stops reading loses the connection instead of holding the
	// writer (and a drain) hostage.
	defaultStreamWriteTimeout = 10 * time.Second
	// defaultStreamIdleTimeout closes a connection that has not
	// delivered a complete frame in this long. It is refreshed on every
	// frame, so long simulations with an idle read side are fine as
	// long as the client eventually speaks again.
	defaultStreamIdleTimeout = 5 * time.Minute
)

// outFrame is one queued completion frame; sentinel marks the writer
// shutdown token injected after the last in-flight request finished
// (flush everything, close the conn, exit). The sentinel is the ONLY
// writer shutdown signal — out is never closed, because goodbye() can
// race teardown and a send on a closed channel would panic.
type outFrame struct {
	f        wire.Frame
	payload  []byte
	sentinel bool
}

// streamConn is one upgraded connection: a reader goroutine (the
// hijacked handler itself) admitting frames, one goroutine per logical
// request, and a writer goroutine draining out. reqs tracks in-flight
// logical requests so drain can say goodbye, wait them out, and close.
type streamConn struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	compress bool
	maxFrame int64

	ctx    context.Context // cancelled when the connection dies
	cancel context.CancelFunc

	out        chan outFrame
	writerDone chan struct{} // closed when the writer exited (clean or dead)

	reqs sync.WaitGroup // in-flight logical requests on this conn

	goodbyeOnce sync.Once
}

// handleStream performs the upgrade handshake and then runs the
// connection until it dies. Version skew (wire protocol or runcache
// schema) is refused with 426 before the hijack, so an incompatible
// client never sees a single frame.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &APIError{Status: http.StatusMethodNotAllowed, Code: CodeMethod, Message: "GET required"})
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.UpgradeProtocol) {
		s.writeError(w, errBadRequest("stream endpoint requires Upgrade: %s", wire.UpgradeProtocol))
		return
	}
	if got := r.Header.Get(wire.VersionHeader); got != strconv.Itoa(wire.ProtoVersion) {
		s.writeError(w, &APIError{Status: http.StatusUpgradeRequired, Code: CodeWireVersion,
			Message: "wire protocol version " + got + " not supported (want " + strconv.Itoa(wire.ProtoVersion) + ")"})
		return
	}
	if got := r.Header.Get(wire.SchemaHeader); got != strconv.Itoa(runcache.SchemaVersion) {
		s.writeError(w, &APIError{Status: http.StatusUpgradeRequired, Code: CodeWireVersion,
			Message: "result schema version " + got + " not supported (want " + strconv.Itoa(runcache.SchemaVersion) + ")"})
		return
	}
	if s.Draining() {
		s.writeDrainRefusal(w)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		s.writeError(w, &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: "listener does not support connection upgrades"})
		return
	}
	compress := r.Header.Get(wire.CompressHeader) == wire.CompressFlate

	conn, rw, err := hj.Hijack()
	if err != nil {
		s.writeError(w, &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: "hijack: " + err.Error()})
		return
	}
	// The 101 goes out raw: the ResponseWriter is ours no longer.
	var resp strings.Builder
	resp.WriteString("HTTP/1.1 101 Switching Protocols\r\n")
	resp.WriteString("Upgrade: " + wire.UpgradeProtocol + "\r\n")
	resp.WriteString("Connection: Upgrade\r\n")
	resp.WriteString(wire.VersionHeader + ": " + strconv.Itoa(wire.ProtoVersion) + "\r\n")
	resp.WriteString(wire.SchemaHeader + ": " + strconv.Itoa(runcache.SchemaVersion) + "\r\n")
	if compress {
		resp.WriteString(wire.CompressHeader + ": " + wire.CompressFlate + "\r\n")
	}
	resp.WriteString("\r\n")
	if _, err := rw.Writer.WriteString(resp.String()); err == nil {
		err = rw.Writer.Flush()
	}
	if err != nil {
		conn.Close()
		return
	}
	// The http.Server's read/write deadlines followed the conn through
	// the hijack; clear them — the stream manages its own.
	_ = conn.SetDeadline(time.Time{})

	ctx, cancel := context.WithCancel(s.baseCtx)
	sc := &streamConn{
		srv:        s,
		conn:       conn,
		br:         rw.Reader, // may already hold buffered frames
		bw:         bufio.NewWriterSize(conn, 32<<10),
		compress:   compress,
		maxFrame:   s.cfg.MaxFrameBytes,
		ctx:        ctx,
		cancel:     cancel,
		out:        make(chan outFrame, 64),
		writerDone: make(chan struct{}),
	}
	if !s.registerStream(sc) {
		// Drain won the race between the pre-hijack check and here:
		// say goodbye on the raw conn and hang up.
		f := wire.Frame{Type: wire.TypeGoodbye}
		_ = wire.WriteFrame(rw.Writer, &f, nil)
		_ = rw.Writer.Flush()
		conn.Close()
		cancel()
		return
	}
	defer s.unregisterStream(sc)
	sc.run()
}

// registerStream adds a connection to the drain-tracked set unless the
// server is already draining. The drainMu pairing mirrors
// beginRequest: BeginDrain can never miss a registered conn.
func (s *Server) registerStream(sc *streamConn) bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.streamWG.Add(1)
	s.streamMu.Lock()
	s.streams[sc] = struct{}{}
	n := len(s.streams)
	s.streamMu.Unlock()
	s.mStreamConns.Inc()
	s.gStreamConns.Set(float64(n))
	return true
}

func (s *Server) unregisterStream(sc *streamConn) {
	s.streamMu.Lock()
	delete(s.streams, sc)
	n := len(s.streams)
	s.streamMu.Unlock()
	s.gStreamConns.Set(float64(n))
	s.streamWG.Done()
}

// goodbye begins this connection's drain: announce it to the client
// immediately (so it stops submitting and fails over), then — once the
// in-flight logical requests have completed and enqueued their results
// — inject the writer sentinel, which flushes and closes. The write
// deadline bounds each flush, so a stalled client cannot hold the
// drain beyond one timeout.
func (sc *streamConn) goodbye() {
	sc.goodbyeOnce.Do(func() {
		sc.enqueue(outFrame{f: wire.Frame{Type: wire.TypeGoodbye}})
		go func() {
			sc.reqs.Wait()
			sc.enqueue(outFrame{sentinel: true})
		}()
	})
}

// enqueue hands a frame to the writer, failing fast (false) when the
// writer is gone — a handler must never block on a dead connection.
func (sc *streamConn) enqueue(of outFrame) bool {
	select {
	case sc.out <- of:
		return true
	case <-sc.writerDone:
		return false
	}
}

// run is the connection reader: admit pipelined request frames, spawn
// one goroutine per logical request, tear everything down when the
// connection dies. It blocks until the conn is fully drained, keeping
// the hijacked handler goroutine as the reader.
func (sc *streamConn) run() {
	s := sc.srv
	go sc.writeLoop()

	idle := s.cfg.StreamIdleTimeout
readLoop:
	for {
		if idle > 0 {
			_ = sc.conn.SetReadDeadline(time.Now().Add(idle))
		}
		f, payload, err := wire.ReadFrame(sc.br, sc.maxFrame)
		if err != nil {
			break // EOF, idle timeout, over-budget frame: hang up
		}
		s.mStreamFramesIn.Inc()
		if f.Flags&wire.FlagCompressed != 0 {
			payload, err = wire.Decompress(payload, sc.maxFrame)
			if err != nil {
				break
			}
		}
		switch f.Type {
		case wire.TypeLoad:
			if !sc.begin() {
				sc.refuseDraining(f.ID)
				continue
			}
			go sc.doLoad(f.ID, payload)
		case wire.TypeCampaign:
			if !sc.begin() {
				sc.refuseDraining(f.ID)
				continue
			}
			go sc.doCampaign(f.ID, payload)
		default:
			// Protocol violation: answer once, then hang up — the
			// stream cannot be trusted to be in sync anymore.
			sc.fail(f.ID, nil, errBadRequest("unexpected frame type %d", f.Type))
			break readLoop
		}
	}

	// Teardown: abandon whatever is still running (the conn is dead or
	// dying; nobody is left to read the answers), wait the handlers
	// out, then stop the writer with the shutdown sentinel. sc.out is
	// deliberately never closed — goodbye() may be enqueueing the
	// Goodbye frame or its own sentinel concurrently, and a send on a
	// closed channel would panic; duplicate sentinels are harmless
	// (the writer exits on the first, enqueue fails fast afterwards).
	sc.cancel()
	sc.reqs.Wait()
	sc.enqueue(outFrame{sentinel: true})
	<-sc.writerDone
	sc.conn.Close()
}

// begin registers one logical request against both the server-wide
// drain barrier and this connection's goodbye barrier.
func (sc *streamConn) begin() bool {
	if !sc.srv.beginRequest() {
		return false
	}
	sc.reqs.Add(1)
	return true
}

// end releases what begin took. Handlers call it after their final
// enqueue, so reqs.Wait() implies every completion frame is queued.
func (sc *streamConn) end() {
	sc.reqs.Done()
	sc.srv.reqWG.Done()
}

func (sc *streamConn) refuseDraining(id uint64) {
	sc.srv.mDrainRejects.Inc()
	sc.fail(id, nil, &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining, Message: "server is draining; retry against another instance"})
}

// writeLoop is the write-side collector: it blocks for the first
// queued frame, then greedily drains whatever else is already queued
// and ships the whole batch under one deadline-bounded flush. Small
// completion frames from concurrent requests coalesce into one
// syscall; the frames-per-flush histogram records how well. The loop
// exits only on the shutdown sentinel or a write error — never on a
// channel close, which would let a concurrent enqueue panic.
func (sc *streamConn) writeLoop() {
	defer close(sc.writerDone)
	s := sc.srv
	writeTimeout := s.cfg.StreamWriteTimeout
	for {
		of := <-sc.out
		var werr error
		batch := 0
		closing := false
		for {
			if of.sentinel {
				closing = true
			} else if werr == nil {
				werr = sc.writeFrame(of)
				if werr == nil {
					batch++
				}
			}
			if closing {
				break
			}
			select {
			case of = <-sc.out:
				continue
			default:
			}
			break
		}
		if werr == nil && batch > 0 {
			werr = sc.flush(writeTimeout)
		}
		if batch > 0 {
			s.hFramesPerFlush.Observe(float64(batch))
		}
		if werr != nil || closing {
			// A write error means a stalled or vanished client; closing
			// the conn unblocks the reader so teardown (and any drain
			// waiting on it) proceeds. The clean-close sentinel ends the
			// same way after a successful flush.
			sc.conn.Close()
			return
		}
	}
}

func (sc *streamConn) flush(writeTimeout time.Duration) error {
	if writeTimeout > 0 {
		_ = sc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	return sc.bw.Flush()
}

// writeFrame encodes one frame into the buffered writer, applying
// negotiated compression when it pays.
func (sc *streamConn) writeFrame(of outFrame) error {
	payload := of.payload
	if sc.compress {
		if cp, ok := wire.Compress(payload); ok {
			payload = cp
			of.f.Flags |= wire.FlagCompressed
			sc.srv.mStreamCompressed.Inc()
		}
	}
	sc.srv.mStreamFramesOut.Inc()
	return wire.WriteFrame(sc.bw, &of.f, payload)
}

// newObs starts the observability record of one logical stream
// request; every request that reaches a handler passed the drain check
// in begin.
func (sc *streamConn) newObs(path string) *reqObs {
	obs := sc.srv.newReqObs(newRequestID(), "STREAM", path, "stream")
	sc.srv.countRequest(obs)
	return obs
}

// fail completes id with a TypeError frame carrying apiErr and records
// it as the request's outcome (obs is nil for a refusal that is not
// logged as a request).
func (sc *streamConn) fail(id uint64, obs *reqObs, apiErr *APIError) {
	if obs != nil {
		obs.status, obs.code = apiErr.Status, apiErr.Code
	}
	sc.enqueue(outFrame{
		f:       wire.Frame{Type: wire.TypeError, ID: id},
		payload: wire.AppendError(nil, apiErr),
	})
}

// doLoad serves one pipelined load frame end to end: decode, the
// shared execute path (governor precheck, cache fast path, admission,
// dedup, simulation), then a Result or Error completion frame. One
// access-log line and one set of endpoint metrics per logical request,
// exactly like an HTTP request.
func (sc *streamConn) doLoad(id uint64, payload []byte) {
	defer sc.end()
	s := sc.srv
	obs := sc.newObs("/v1/load")
	defer s.logRequest(obs)

	req, err := wire.DecodeLoadRequest(payload)
	if err != nil {
		sc.fail(id, obs, errBadRequest("load frame: %v", err))
		return
	}
	req, apiErr := normalizeLoadRequest(req, s.cfg.DefaultFidelity)
	if apiErr != nil {
		sc.fail(id, obs, apiErr)
		return
	}
	obs.fidelity = req.Fidelity

	ctx, cancel := RequestCtx(context.WithValue(sc.ctx, obsKey{}, obs), req.TimeoutMs, s.cfg.DefaultTimeout)
	defer cancel()

	body, source, apiErr := s.executeLoad(ctx, req)
	if apiErr != nil {
		sc.fail(id, obs, apiErr)
		return
	}
	obs.source, obs.bytes = source, int64(len(body))
	sc.enqueue(outFrame{
		f:       wire.Frame{Type: wire.TypeResult, Flags: wire.SourceFlag(source), ID: id},
		payload: body,
	})
}

// doCampaign serves one pipelined campaign frame, streaming each cell
// back as its run finishes (aux = grid index, so order never matters)
// and completing the id with a summary frame carrying the aggregate
// provenance — the stream-transport equivalent of the JSON path's
// response array plus X-Dora-Source header.
func (sc *streamConn) doCampaign(id uint64, payload []byte) {
	defer sc.end()
	s := sc.srv
	obs := sc.newObs("/v1/campaign")
	defer s.logRequest(obs)

	req, err := wire.DecodeCampaignRequest(payload)
	if err != nil {
		sc.fail(id, obs, errBadRequest("campaign frame: %v", err))
		return
	}
	req, cells, apiErr := expandCampaign(req, s.cfg.DefaultFidelity)
	if apiErr != nil {
		sc.fail(id, obs, apiErr)
		return
	}
	obs.fidelity = cells[0].Fidelity

	ctx, cancel := RequestCtx(context.WithValue(sc.ctx, obsKey{}, obs), req.TimeoutMs, s.cfg.DefaultTimeout)
	defer cancel()

	sources := make([]string, len(cells))
	errored := 0
	var mu sync.Mutex
	apiErr = s.executeCampaign(ctx, cells, func(i int, cell CampaignCell, source string) {
		body, merr := json.Marshal(cell)
		if merr != nil {
			// Unreachable for a cell RunCampaign builds, but if it ever
			// fires the client must still see one frame per cell — the
			// CampaignEnd summary counts them all — so ship the cell as
			// a structured error and drop its provenance instead of
			// silently sending fewer frames than summary.Cells.
			cell = CampaignCell{Page: cell.Page, CoRunner: cell.CoRunner, Governor: cell.Governor, Seed: cell.Seed,
				Error: &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: "encode campaign cell: " + merr.Error()}}
			source = ""
			body, _ = json.Marshal(cell)
		}
		sources[i] = source
		if cell.Error != nil {
			mu.Lock()
			errored++
			mu.Unlock()
		}
		sc.enqueue(outFrame{
			f:       wire.Frame{Type: wire.TypeCampaignCell, Flags: wire.SourceFlag(source), Aux: uint16(i), ID: id},
			payload: body,
		})
		mu.Lock()
		obs.bytes += int64(len(body))
		mu.Unlock()
	})
	if apiErr != nil {
		sc.fail(id, obs, apiErr)
		return
	}
	agg := AggregateSource(sources)
	obs.source = agg
	summary := wire.CampaignSummary{Cells: len(cells), Errored: errored}
	sc.enqueue(outFrame{
		f:       wire.Frame{Type: wire.TypeCampaignEnd, Flags: wire.SourceFlag(agg), ID: id},
		payload: wire.AppendCampaignSummary(nil, &summary),
	})
}

// AggregateSource folds per-cell provenance into the campaign-level
// X-Dora-Source value: the common source when all answered cells
// agree, "mixed" otherwise, "" when no cell produced a result. The
// cluster gateway uses it too, so its assembled campaigns carry the
// same header semantics as a single node's.
func AggregateSource(sources []string) string {
	agg := ""
	for _, src := range sources {
		if src == "" {
			continue // errored cells carry no provenance
		}
		if agg == "" {
			agg = src
		} else if agg != src {
			return "mixed"
		}
	}
	return agg
}

// --- shared execution paths (JSON + stream) ---------------------------

// executeLoad runs a normalized load request through the serving path
// both transports share: governor precheck, the pre-admission runcache
// fast path, admission, and the deduplicated simulation.
//
// The fast path is the transport optimization's other half: a warm
// cache hit answers before the admission semaphore, so repeat requests
// are never queued behind in-flight simulations — their latency is
// pure transport, which is exactly what the stream transport then
// collapses.
func (s *Server) executeLoad(ctx context.Context, req LoadRequest) (body []byte, source string, apiErr *APIError) {
	if apiErr := s.requireModels(req.Governor); apiErr != nil {
		return nil, "", apiErr
	}
	key := s.loadKey(req)
	if b, ok := s.cacheGet(key); ok {
		return b, "cache", nil
	}
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		return nil, "", apiErr
	}
	defer release()
	body, source, apiErr = s.simulateKey(ctx, key, req)
	if apiErr != nil && apiErr.Code == CodeAborted { // e.g. server force-closed mid-run
		apiErr = &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining, Message: apiErr.Message}
	}
	return body, source, apiErr
}

// executeCampaign simulates an expanded grid under one admission slot,
// invoking emit once per cell as it finishes (from pool workers; emit
// must be safe for concurrent calls on distinct indexes). The JSON
// path collects cells into the response array; the stream path ships
// each as its own frame.
func (s *Server) executeCampaign(ctx context.Context, cells []LoadRequest, emit func(i int, cell CampaignCell, source string)) *APIError {
	for _, c := range cells {
		if apiErr := s.requireModels(c.Governor); apiErr != nil {
			return apiErr
		}
	}
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		return apiErr
	}
	defer release()

	// The campaign holds one admission slot; its internal fan-out is
	// bounded by the worker pool.
	if apiErr := RunCampaign(ctx, cells, s.cfg.Workers, s.simulate, emit); apiErr != nil {
		return apiErr
	}
	s.mCampaignCells.Add(uint64(len(cells)))
	return nil
}

// RunCampaign is the campaign cell loop dorad and doragate share: up
// to workers cells at a time go through do, and each finished cell is
// handed to emit with its grid index (emit must be safe for concurrent
// calls on distinct indexes). Output is addressed by grid index, never
// by completion order, so an assembled campaign is byte-identical at
// any worker count and cluster width. A cell whose turn comes after ctx
// ended carries the ctx error instead of running, and RunCampaign then
// returns that error.
func RunCampaign(ctx context.Context, cells []LoadRequest, workers int,
	do func(context.Context, LoadRequest) (body []byte, source string, apiErr *APIError),
	emit func(i int, cell CampaignCell, source string)) *APIError {
	_ = pool.Run(len(cells), workers, func(i int) error {
		lr := cells[i]
		cell := CampaignCell{Page: lr.Page, CoRunner: lr.CoRunner, Governor: lr.Governor, Seed: lr.Seed}
		source := ""
		if ctx.Err() != nil {
			cell.Error = CtxErrToAPI(ctx)
		} else {
			body, src, apiErr := do(ctx, lr)
			if apiErr != nil {
				cell.Error = apiErr
			} else {
				cell.Result = body
				source = src
			}
		}
		emit(i, cell, source)
		return nil
	})
	if ctx.Err() != nil {
		return CtxErrToAPI(ctx)
	}
	return nil
}
