// Command dorad serves the DORA simulator over HTTP: page-load
// simulations (POST /v1/load), measurement-campaign grids
// (POST /v1/campaign), the binary stream transport (GET /v1/stream,
// connection upgrade; see internal/wire), corpus discovery
// (GET /v1/pages), Prometheus metrics (GET /metrics), a JSON process
// snapshot (GET /debug/vars), and a drain-aware health check
// (GET /healthz).
//
// The daemon applies backpressure (429 + jittered Retry-After when the
// bounded admission queue fills), deduplicates identical in-flight
// requests onto one simulation, serves repeats from the persistent run
// cache, and on SIGINT/SIGTERM drains gracefully: in-flight
// simulations run to completion while new requests are refused with
// 503. Shutdown ends with a structured summary of the daemon's whole
// life: requests served, load shed, dedup joins, cache hits.
//
// Observability: every response carries X-Dora-Request-Id (generated,
// or propagated from the request); -log-level/-log-file emit
// structured key=value logs including one "access" line per request;
// -pprof opts into the net/http/pprof endpoints.
//
// Usage:
//
//	dorad [-addr :8077] [-models models.json] [-runcache cache.json]
//	      [-workers N] [-concurrency N] [-queue N]
//	      [-timeout 30s] [-drain-timeout 30s] [-pprof]
//	      [-log-level info,access=warn] [-log-file dorad.log]
//
// Exit status: 0 after a drained shutdown (SIGINT/SIGTERM), 2 for bad
// flags or configuration, 1 when listening or serving fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dora/internal/core"
	"dora/internal/fidelity"
	"dora/internal/obslog"
	"dora/internal/pool"
	"dora/internal/runcache"
	"dora/internal/serve"
	"dora/internal/telemetry"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is dorad's whole life: parse args, serve until ctx is cancelled
// or a SIGINT/SIGTERM arrives, then drain. It returns the process exit
// status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	logf := log.New(stderr, "dorad: ", 0)
	fs := flag.NewFlagSet("dorad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8077", "listen address")
	modelsPath := fs.String("models", "", "trained models JSON; enables the DORA/DL/EE governors")
	cachePath := fs.String("runcache", "", "persistent run cache file (saved on shutdown)")
	workers := fs.Int("workers", 0, "campaign fan-out width (0 = one per CPU or $DORA_WORKERS)")
	concurrency := fs.Int("concurrency", 0, "requests simulated at once (0 = serve default)")
	queue := fs.Int("queue", 0, "admitted requests waiting beyond -concurrency before 429 (0 = serve default)")
	timeout := fs.Duration("timeout", 0, "default per-request processing deadline when the request sets no timeout_ms (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight simulations")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes profiling internals; opt-in)")
	fidelityFlag := fs.String("fidelity", "exact", "default simulation fidelity for requests that omit the field: exact|sampled")
	logFlags := obslog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	nworkers, err := pool.ResolveWorkers(*workers)
	if err != nil {
		logf.Print(err)
		return 2
	}
	fid, err := fidelity.ParseMode(*fidelityFlag)
	if err != nil {
		logf.Print(err)
		return 2
	}

	var models *core.Models
	if *modelsPath != "" {
		data, err := os.ReadFile(*modelsPath)
		if err != nil {
			logf.Print(err)
			return 2
		}
		var m core.Models
		if err := json.Unmarshal(data, &m); err != nil {
			logf.Printf("parse %s: %v", *modelsPath, err)
			return 2
		}
		models = &m
	}

	var cache *runcache.Cache
	if *cachePath != "" {
		cache, err = runcache.Open(*cachePath)
		if err != nil {
			logf.Print(err)
			return 2
		}
		logf.Printf("run cache %s: %d entries", *cachePath, cache.Len())
	}

	logger, logCloser, err := logFlags.Open("dorad")
	if err != nil {
		logf.Print(err)
		return 2
	}
	defer logCloser.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf.Print(err)
		return 1
	}

	srv := serve.NewServer(serve.Config{
		Models:          models,
		Workers:         nworkers,
		Concurrency:     *concurrency,
		MaxQueue:        *queue,
		DefaultTimeout:  *timeout,
		Cache:           cache,
		DefaultFidelity: fid.String(),
		Metrics:         telemetry.NewRegistry(),
		Log:             logger,
		EnablePprof:     *pprof,
	})

	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Hardened listener: header/read/write/idle deadlines plus a header
	// budget, so slow or hostile clients cannot pin connections (or a
	// later drain) open indefinitely. The stream transport applies its
	// own frame-level deadlines after the upgrade.
	hs := serve.NewHTTPServer(*addr, srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	bound := ln.Addr().String()
	logf.Printf("listening on %s (workers=%d, models=%v, cache=%v, pprof=%v)",
		bound, nworkers, models != nil, cache != nil, *pprof)
	logger.Info().
		Str("addr", bound).
		Int("workers", nworkers).
		Bool("models", models != nil).
		Bool("cache", cache != nil).
		Bool("pprof", *pprof).
		Msg("listening")

	select {
	case <-ctx.Done():
		logf.Printf("draining (up to %s)...", *drainTimeout)
		logger.Info().Dur("drain_timeout_ms", *drainTimeout).Msg("draining")
	case err := <-errCh:
		logf.Print(err)
		return 1
	}

	// Drain order: refuse new simulation work first, then let the HTTP
	// server wait out open connections (whose handlers finish their
	// simulations), then mop up detached flight leaders.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.BeginDrain()
	if err := hs.Shutdown(drainCtx); err != nil {
		logf.Printf("shutdown: %v (forcing)", err)
		logger.Warn().Err(err).Msg("shutdown forced")
	}
	if err := srv.Drain(drainCtx); err != nil {
		logf.Printf("drain: %v", err)
		logger.Warn().Err(err).Msg("drain incomplete")
	}
	if cache != nil {
		if err := cache.Save(); err != nil {
			logf.Print(err)
		}
	}

	// Lifetime summary: one structured line (grep-able from the log
	// stream) and a human-readable stdout recap.
	st := srv.Stats()
	logger.Info().
		Uint64("requests", st.Requests).
		Uint64("admission_rejects", st.AdmissionRejects).
		Uint64("drain_rejects", st.DrainRejects).
		Uint64("deadline_expired", st.DeadlineExpired).
		Uint64("dedup_joins", st.DedupJoins).
		Uint64("sim_executions", st.SimExecutions).
		Uint64("cache_hits", st.CacheHits).
		Uint64("cache_misses", st.CacheMisses).
		Uint64("campaign_cells", st.CampaignCells).
		Msg("shutdown summary")
	fmt.Fprintf(stdout, "served %d requests (%d sims, %d dedup joins, %d cache hits, %d campaign cells; shed %d, drain-refused %d, deadline-expired %d)\n",
		st.Requests, st.SimExecutions, st.DedupJoins, st.CacheHits,
		st.CampaignCells, st.AdmissionRejects, st.DrainRejects, st.DeadlineExpired)
	if cache != nil {
		hits, misses, stores := cache.Stats()
		fmt.Fprintf(stdout, "run cache %s: %d hits, %d misses, %d new entries\n",
			cache.Path(), hits, misses, stores)
	}
	return 0
}
