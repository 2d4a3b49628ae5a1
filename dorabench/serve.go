package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/cluster"
	"dora/internal/corun"
	"dora/internal/obslog"
	"dora/internal/runcache"
	"dora/internal/serve"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/webgen"
	"dora/internal/wire"
)

// Request mix of both serving workloads: short pages, every co-run
// intensity, two non-model governors. Every seed draws the same mix, so
// a run's cost does not depend on the seed.
var (
	servePages     = []string{"Alipay", "360", "Twitter", "Youtube"}
	serveGovernors = []string{"interactive", "ondemand"}
	serveIntensity = []corun.Intensity{corun.None, corun.Low, corun.Medium, corun.High}
)

const (
	serveClients = 2 // closed-loop clients, connections and worker slots
	// serveWarmupMs is the daemon's default warmup, spelled out because
	// simulated time counts it.
	serveWarmupMs = 500
	// Nominal request rates that turn --seconds into a fixed request
	// count.
	hotRequestsPerSecond   = 9000
	freshRequestsPerSecond = 8
)

// serveMix returns every request combination, in a seed-shuffled
// order. Each page runs with one kernel per intensity, the one
// train.Campaign would pair it with, so the mix is the same whatever
// the seed.
func serveMix(rng *rand.Rand) []serve.LoadRequest {
	mix := serveCombos()
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// serveCombos lists the mix page-major, then by co-run intensity, then
// by governor.
func serveCombos() []serve.LoadRequest {
	var mix []serve.LoadRequest
	for pi, page := range servePages {
		for _, in := range serveIntensity {
			corunner := ""
			if in != corun.None {
				k, err := corun.PickFor(in, pi)
				if err != nil {
					panic(err) // every intensity has built-in kernels
				}
				corunner = k.Name
			}
			for _, gov := range serveGovernors {
				mix = append(mix, serve.LoadRequest{Page: page, CoRunner: corunner, Governor: gov})
			}
		}
	}
	return mix
}

// node is one in-process HTTP server on a loopback port.
type node struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

func (n *node) close() {
	if n == nil {
		return
	}
	n.hs.Close()
	<-n.done
}

// accessLog collects the worker access log's per-request stage times.
type accessLog struct {
	mu             sync.Mutex
	queueMs, simMs []float64
}

// reset forgets the lines logged so far (priming and warm-up requests).
func (a *accessLog) reset() {
	a.mu.Lock()
	a.queueMs, a.simMs = nil, nil
	a.mu.Unlock()
}

func (a *accessLog) Write(p []byte) (int, error) {
	var q, s float64
	var haveQ, haveS bool
	for _, f := range strings.Fields(string(p)) {
		if v, ok := strings.CutPrefix(f, "queue_wait_ms="); ok {
			q, haveQ = parseFloat(v)
		} else if v, ok := strings.CutPrefix(f, "sim_ms="); ok {
			s, haveS = parseFloat(v)
		}
	}
	if haveQ && haveS {
		a.mu.Lock()
		a.queueMs, a.simMs = append(a.queueMs, q), append(a.simMs, s)
		a.mu.Unlock()
	}
	return len(p), nil
}

func parseFloat(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// worker is one in-process dorad with its own run cache.
type worker struct {
	srv   *serve.Server
	cache *runcache.Cache
	reg   *telemetry.Registry
	node  *node
}

func startWorker(tr *tracer, cachePath string, log io.Writer) (*worker, error) {
	c, err := runcache.Open(cachePath)
	if err != nil {
		return nil, err
	}
	w := &worker{cache: c, reg: telemetry.NewRegistry()}
	cfg := serve.Config{Cache: c, Concurrency: serveClients, Metrics: w.reg}
	if log != nil {
		cfg.Log = obslog.New(log, obslog.Options{})
	}
	w.srv = serve.NewServer(cfg)
	if w.node, err = listen(traceHandler(tr, "serve.handler", w.srv.Handler())); err != nil {
		w.srv.Close()
		return nil, err
	}
	return w, nil
}

func (w *worker) close() {
	if w == nil {
		return
	}
	w.srv.Close()
	w.node.close()
}

func statsSum(ws []*worker) serve.Stats {
	var s serve.Stats
	for _, w := range ws {
		st := w.srv.Stats()
		s.Requests += st.Requests
		s.AdmissionRejects += st.AdmissionRejects
		s.DedupJoins += st.DedupJoins
		s.SimExecutions += st.SimExecutions
		s.CacheHits += st.CacheHits
		s.CacheMisses += st.CacheMisses
	}
	return s
}

// serveLayers fills the worker-side per-layer metrics shared by both
// serving workloads.
func serveLayers(m map[string]float64, tr *tracer, ws []*worker, log *accessLog, before serve.Stats) {
	after := statsSum(ws)
	m["serve.handler_ms"] = mean(tr.durationsMs("serve.handler"))
	log.mu.Lock()
	m["serve.queue_wait_ms"], m["serve.sim_ms"] = mean(log.queueMs), mean(log.simMs)
	log.mu.Unlock()
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["serve.sim_executions"] = float64(after.SimExecutions - before.SimExecutions)
	m["serve.dedup_joins"] = float64(after.DedupJoins - before.DedupJoins)
	m["serve.admission_rejects"] = float64(after.AdmissionRejects - before.AdmissionRejects)
	var entries int
	for _, w := range ws {
		entries += w.cache.Len()
	}
	m["runcache.entries"] = float64(entries)
	var saves []float64
	for _, w := range ws {
		start := time.Now()
		if err := w.cache.Save(); err != nil {
			fmt.Println("runcache.save_ms dropped:", err)
			return
		}
		saves = append(saves, ms(time.Since(start)))
	}
	m["runcache.save_ms"] = mean(saves)
}

// cacheLayers times runcache.Get on the workers' caches and Put into a
// fresh cache, over the workload's own keys and results.
func cacheLayers(m map[string]float64, ws []*worker, reqs []serve.LoadRequest, results []sim.Result, dir string) {
	fp := sim.ConfigFingerprint(soc.NexusFive())
	const reps = 20
	var gets, puts []float64
	fresh, err := runcache.Open(filepath.Join(dir, "put.json"))
	if err != nil {
		fmt.Println("runcache.put_us dropped:", err)
	}
	for i, req := range reqs {
		norm, apiErr := serve.DecodeLoadRequest(mustJSON(req))
		if apiErr != nil {
			continue
		}
		key := runcache.Key("serve-load", fp, norm)
		for _, w := range ws {
			var r sim.Result
			start := time.Now()
			hit := false
			for j := 0; j < reps; j++ {
				hit = w.cache.Get(key, &r)
			}
			if hit {
				gets = append(gets, float64(time.Since(start).Nanoseconds())/1e3/reps)
			}
		}
		if i < len(results) && fresh != nil {
			start := time.Now()
			fresh.Put(key, results[i])
			puts = append(puts, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	if len(gets) == 0 {
		fmt.Println("runcache.get_us dropped: no workload key hit a worker cache")
	}
	m["runcache.get_us"], m["runcache.put_us"] = mean(gets), mean(puts)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs reach here
	}
	return b
}

// --- serve-hot --------------------------------------------------------

// serveHot posts JSON loads to an in-process doragate in front of two
// dorad workers, every one a run-cache hit.
type serveHot struct {
	reqs   []serve.LoadRequest
	bodies [][]byte
	seq    []int
	tmp    string

	workers []*worker
	gate    *node
	gw      *cluster.Gateway
	gwReg   *telemetry.Registry
	client  *http.Client
	log     *accessLog
	primed  [][]byte
	sims    []sim.Result
	before  serve.Stats
	served  []string // worker that answered each timed request
	members []string // gateway member names, fixed so key placement depends only on the seed
	setups  int
}

func newServeHot(seed int64, seconds float64, tmp string) *serveHot {
	rng := rand.New(rand.NewSource(seed))
	h := &serveHot{tmp: tmp}
	// One distinct request per page and governor keeps priming short;
	// page i runs beside a co-runner of intensity i.
	combos := serveCombos()
	for pi := range servePages {
		for g := range serveGovernors {
			r := combos[(pi*len(serveIntensity)+pi%len(serveIntensity))*len(serveGovernors)+g]
			r.Seed = rng.Int63n(1 << 40)
			h.reqs = append(h.reqs, r)
			h.bodies = append(h.bodies, mustJSON(r))
		}
	}
	n := int(math.Max(1, math.Round(seconds*hotRequestsPerSecond)))
	h.seq = make([]int, n)
	for i := range h.seq {
		h.seq[i] = rng.Intn(len(h.reqs))
	}
	return h
}

func (h *serveHot) why() string {
	return "repeated requests through the gateway, all answered from the workers' run caches: gateway routing and forwarding, request decoding and runcache reads are the whole latency, and the simulator does nothing"
}

func (h *serveHot) setup(tr *tracer) error {
	h.setups++
	h.log = &accessLog{}
	h.members = nil
	var members []cluster.Member
	for i := 0; i < 2; i++ {
		var logw io.Writer
		if tr != nil {
			logw = h.log
		}
		w, err := startWorker(tr, filepath.Join(h.tmp, fmt.Sprintf("hot-%d-%d.json", h.setups, i)), logw)
		if err != nil {
			return err
		}
		h.workers = append(h.workers, w)
		name := fmt.Sprintf("w%d", i)
		h.members = append(h.members, name)
		members = append(members, cluster.Member{Name: name, URL: w.node.url})
	}
	var fwd http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 64}
	if tr != nil {
		fwd = traceTransport{t: tr, name: "cluster.forward", next: fwd}
	}
	h.gwReg = telemetry.NewRegistry()
	gw, err := cluster.NewGateway(cluster.Config{
		Members:     members,
		Fingerprint: sim.ConfigFingerprint(soc.NexusFive()),
		HTTPClient:  &http.Client{Transport: fwd},
		Metrics:     h.gwReg,
	})
	if err != nil {
		return err
	}
	h.gw = gw
	if h.gate, err = listen(traceHandler(tr, "cluster.gateway", gw.Handler())); err != nil {
		return err
	}
	gw.ProbeOnce(context.Background())
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	// Prime: each distinct request once, two at a time.
	h.primed = make([][]byte, len(h.reqs))
	h.sims = make([]sim.Result, len(h.reqs))
	errs := make([]error, len(h.reqs))
	parallel(len(h.reqs), serveClients, func(_, i int) {
		body, src, _, err := h.post(h.bodies[i])
		if err == nil && src != "sim" {
			err = fmt.Errorf("priming request %d answered from %q, want sim", i, src)
		}
		if err == nil {
			err = json.Unmarshal(body, &h.sims[i])
		}
		h.primed[i], errs[i] = body, err
	})
	h.log.reset()
	h.before = statsSum(h.workers)
	return errors.Join(errs...)
}

// post sends one load to the gateway and returns the body, its source
// and the worker that served it.
func (h *serveHot) post(body []byte) ([]byte, string, string, error) {
	resp, err := h.client.Post(h.gate.url+"/v1/load", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", "", fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return out, resp.Header.Get(serve.SourceHeader), resp.Header.Get(cluster.WorkerHeader), nil
}

func (h *serveHot) reference() error { return nil } // the primed responses are the reference

func (h *serveHot) run(tr *tracer) (pass, error) {
	p := pass{ops: make([]opSample, len(h.seq)), units: len(h.seq)}
	h.served = make([]string, len(h.seq))
	var failed atomic.Int64
	start := time.Now()
	parallel(len(h.seq), serveClients, func(_, i int) {
		j := h.seq[i]
		t0 := time.Now()
		body, src, wk, err := h.post(h.bodies[j])
		p.ops[i] = opSample{LatencyMs: ms(time.Since(t0)), SimMs: serveWarmupMs + ms(h.sims[j].LoadTime), RanSim: src == "sim"}
		h.served[i] = wk
		if err != nil || src != "cache" || !bytes.Equal(body, h.primed[j]) {
			failed.Add(1)
		}
	})
	p.wall = time.Since(start)
	p.failed = int(failed.Load())
	return p, nil
}

func (h *serveHot) layers(tr *tracer, p pass) map[string]float64 {
	m := map[string]float64{}
	serveLayers(m, tr, h.workers, h.log, h.before)
	cacheLayers(m, h.workers, h.reqs, h.sims, h.tmp)

	m["cluster.gateway_ms"] = mean(tr.durationsMs("cluster.gateway"))
	m["cluster.forward_ms"] = mean(tr.durationsMs("cluster.forward"))
	m["cluster.gateway_self_ms"] = mean(tr.selfMs("cluster.gateway", "cluster.forward"))
	m["cluster.reroutes"] = float64(h.gwReg.Counter("dora_gate_reroutes_total", "").Value())
	share := map[string]int{}
	for _, wk := range h.served {
		share[wk]++
	}
	for _, n := range share {
		m["cluster.worker_share_max"] = math.Max(m["cluster.worker_share_max"], float64(n)/float64(len(h.served)))
	}
	// The gateway's routing key: fingerprint plus canonical request.
	fp := sim.ConfigFingerprint(soc.NexusFive())
	keys := make([]string, len(h.bodies))
	for i, b := range h.bodies {
		norm, _ := serve.DecodeLoadRequest(b)
		keys[i] = runcache.Key("gate-route", fp, norm)
	}
	const reps = 1000
	start := time.Now()
	for i := 0; i < reps; i++ {
		cluster.Pick(keys[i%len(keys)], h.members)
	}
	m["cluster.pick_ns"] = nsPer(time.Since(start), reps)

	var mpki []float64
	for _, r := range h.sims {
		if r.CoRunName != "" {
			mpki = append(mpki, r.AvgCoRunMPKI)
		}
	}
	m["soc.l2_mpki"] = mean(mpki)
	requestKernelLayers(m, h.reqs[0])
	return m
}

func (h *serveHot) close() {
	if h.gw != nil {
		h.gw.Close()
	}
	h.gate.close()
	for _, w := range h.workers {
		w.close()
	}
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
	h.workers, h.gate, h.gw, h.client = nil, nil, nil, nil
}

// --- serve-fresh ------------------------------------------------------

// serveFresh streams unique exact loads over two wire connections, one
// request in flight on each, straight to one dorad with a run cache.
type serveFresh struct {
	seed   int64
	reqs   []serve.LoadRequest
	warm   []serve.LoadRequest
	tmp    string
	want   []string // per-request body sha256, in request order
	setups int

	w       *worker
	clients []*wire.Client
	log     *accessLog
	before  serve.Stats
	results []sim.Result
}

func newServeFresh(seed int64, seconds float64, tmp string) *serveFresh {
	rng := rand.New(rand.NewSource(seed))
	f := &serveFresh{seed: seed, tmp: tmp}
	mix := serveMix(rng)
	passes := int(math.Max(1, math.Round(seconds*freshRequestsPerSecond/float64(len(mix)))))
	seen := map[int64]bool{}
	seedOf := func() int64 {
		for {
			s := rng.Int63n(1 << 40)
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
	// Passes are drawn in order, so a shorter run's requests are a
	// prefix of a longer one's.
	for p := 0; p < passes; p++ {
		for _, r := range mix {
			r.Seed = seedOf()
			f.reqs = append(f.reqs, r)
		}
		rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	}
	// The warm-up loads are the same for every seed; their seeds lie
	// above every sequence seed, so they never share a cache key.
	for i := 0; i < serveClients; i++ {
		r := serveCombos()[i]
		r.Seed = 1<<40 + int64(i)
		f.warm = append(f.warm, r)
	}
	return f
}

func (f *serveFresh) why() string {
	return "unique exact loads over the binary stream: admission, the simulator and run-cache writes carry the work, the write-side twin of serve-hot, and the gateway is not involved"
}

func wireReq(r serve.LoadRequest) *wire.LoadRequest {
	return &wire.LoadRequest{Page: r.Page, CoRunner: r.CoRunner, Governor: r.Governor, Seed: r.Seed}
}

// setup boots the daemon, dials both streams and sends one warm-up load
// on each.
func (f *serveFresh) setup(tr *tracer) error {
	f.setups++
	f.log = &accessLog{}
	var logw io.Writer
	if tr != nil {
		logw = f.log
	}
	w, err := startWorker(tr, filepath.Join(f.tmp, fmt.Sprintf("fresh-%d.json", f.setups)), logw)
	if err != nil {
		return err
	}
	f.w = w
	for i := 0; i < serveClients; i++ {
		c, err := wire.Dial(context.Background(), w.node.url, wire.Options{})
		if err != nil {
			return err
		}
		f.clients = append(f.clients, c)
	}
	errs := make([]error, serveClients)
	parallel(serveClients, serveClients, func(_, i int) {
		_, _, errs[i] = f.clients[i].Load(context.Background(), wireReq(f.warm[i]))
	})
	f.log.reset()
	f.before = f.w.srv.Stats()
	return errors.Join(errs...)
}

func bodyHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// freshHashes answers reqs through a plain JSON-path daemon without a
// cache, two at a time, and hashes each body.
func freshHashes(reqs []serve.LoadRequest) ([]string, error) {
	srv := serve.NewServer(serve.Config{Concurrency: serveClients})
	defer srv.Close()
	h := srv.Handler()
	out := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	parallel(len(reqs), serveClients, func(_, i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/load", bytes.NewReader(mustJSON(reqs[i]))))
		if rec.Code != http.StatusOK {
			errs[i] = fmt.Errorf("reference request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		out[i] = bodyHash(rec.Body.Bytes())
	})
	return out, errors.Join(errs...)
}

// reference uses the committed hashes when they cover the sequence, and
// computes them otherwise.
func (f *serveFresh) reference() error {
	if f.seed == defaultSeed {
		ref, err := loadReference()
		if err != nil {
			return err
		}
		if len(ref.Fresh) >= len(f.reqs) {
			f.want = ref.Fresh[:len(f.reqs)]
			return nil
		}
	}
	var err error
	f.want, err = freshHashes(f.reqs)
	return err
}

func (f *serveFresh) run(tr *tracer) (pass, error) {
	p := pass{ops: make([]opSample, len(f.reqs)), units: len(f.reqs)}
	f.results = make([]sim.Result, len(f.reqs))
	var failed atomic.Int64
	start := time.Now()
	parallel(len(f.reqs), serveClients, func(g, i int) {
		c := f.clients[g]
		t0, id := time.Now(), tr.newID()
		body, src, err := c.Load(context.Background(), wireReq(f.reqs[i]))
		tr.record(id, 0, uint64(i+1), "wire.load", t0)
		p.ops[i] = opSample{LatencyMs: ms(time.Since(t0)), RanSim: src == "sim"}
		if err == nil {
			err = json.Unmarshal(body, &f.results[i])
		}
		p.ops[i].SimMs = serveWarmupMs + ms(f.results[i].LoadTime)
		if err != nil || src != "sim" || bodyHash(body) != f.want[i] {
			failed.Add(1)
		}
	})
	p.wall = time.Since(start)
	p.failed = int(failed.Load())
	return p, nil
}

func (f *serveFresh) layers(tr *tracer, p pass) map[string]float64 {
	m := map[string]float64{}
	ws := []*worker{f.w}
	serveLayers(m, tr, ws, f.log, f.before)
	cacheLayers(m, ws, f.reqs, f.results, f.tmp)

	rtt := mean(tr.durationsMs("wire.load"))
	m["wire.load_rtt_ms"] = rtt
	m["wire.overhead_ms"] = rtt - m["serve.queue_wait_ms"] - m["serve.sim_ms"]
	const reps = 20
	var enc []byte
	start := time.Now()
	for j := 0; j < reps; j++ {
		for _, r := range f.reqs {
			enc = wire.AppendLoadRequest(enc[:0], wireReq(r))
		}
	}
	m["wire.encode_ns"] = nsPer(time.Since(start), reps*len(f.reqs))
	payloads := make([][]byte, len(f.reqs))
	for i, r := range f.reqs {
		payloads[i] = wire.AppendLoadRequest(nil, wireReq(r))
	}
	start = time.Now()
	for j := 0; j < reps; j++ {
		for _, pl := range payloads {
			if _, err := wire.DecodeLoadRequest(pl); err != nil {
				fmt.Println("wire.decode_ns:", err)
			}
		}
	}
	m["wire.decode_ns"] = nsPer(time.Since(start), reps*len(f.reqs))
	if h := f.w.reg.Histogram("dora_stream_frames_per_flush", "", nil); h.Count() > 0 {
		m["wire.frames_per_flush"] = h.Sum() / float64(h.Count())
	}

	var mpki, simulated []float64
	for i, r := range f.results {
		simulated = append(simulated, p.ops[i].SimMs)
		if r.CoRunName != "" {
			mpki = append(mpki, r.AvgCoRunMPKI)
		}
	}
	m["sim.simulated_ms_per_cell"] = mean(simulated)
	m["soc.l2_mpki"] = mean(mpki)
	requestKernelLayers(m, f.reqs[0])
	return m
}

func (f *serveFresh) close() {
	for _, c := range f.clients {
		c.Close()
	}
	f.clients = nil
	f.w.close()
	f.w = nil
}

// requestKernelLayers times the kernel layers on a machine assembled like
// req's simulation, at the top operating point the governors reach.
func requestKernelLayers(m map[string]float64, req serve.LoadRequest) {
	err := func() error {
		page, err := webgen.ByName(req.Page)
		if err != nil {
			return err
		}
		var k *corun.Kernel
		if req.CoRunner != "" {
			kk, err := corun.ByName(req.CoRunner)
			if err != nil {
				return err
			}
			k = &kk
		}
		cfg := soc.NexusFive()
		return kernelLayers(m, page, k, cfg.OPPs.Max(), req.Seed)
	}()
	if err != nil {
		fmt.Println("kernel layers dropped:", err)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// parallel runs fn(g, i) for i in 0..n-1 on goroutines g in 0..width-1,
// handing out indexes in order, and returns when every call has
// returned.
func parallel(n, width int, fn func(g, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < width; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(g, i)
			}
		}(g)
	}
	wg.Wait()
}
