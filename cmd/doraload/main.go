// Command doraload generates HTTP load against dorad and reports
// client-observed latency percentiles, throughput, and response
// provenance (fresh simulation vs. dedup vs. run cache) — the serving
// companion to the kernel benchmarks, in the spirit of aisloader.
//
// Modes:
//
//	doraload -target http://host:8077 [-duration 5s] [-c 8] [-qps 50]
//	    drive an already-running daemon (closed loop by default,
//	    open loop when -qps is set)
//	doraload -self [-duration 5s] ...
//	    start an in-process dorad on a loopback port and drive that
//	    (`make load` with no TARGET), so no external daemon is needed
//	doraload -validate report.json
//	    schema-check a saved report and exit
//
// The JSON report (-json) is a dora-bench-serve/v2 document; -validate
// checks its shape with the same code that generates it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dora/internal/loadgen"
	"dora/internal/obslog"
	"dora/internal/runcache"
	"dora/internal/serve"
	"dora/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doraload: ")

	target := flag.String("target", "", "base URL of a running dorad (e.g. http://127.0.0.1:8077)")
	self := flag.Bool("self", false, "start an in-process dorad on a loopback port and drive it")
	transport := flag.String("transport", "json", "serving transport: json | stream | both (both = same mix on each, side-by-side report)")
	compress := flag.Bool("compress", false, "negotiate per-frame compression on the stream transport")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	concurrency := flag.Int("c", 4, "workers (closed loop) / max in-flight requests (open loop)")
	qps := flag.Float64("qps", 0, "open-loop arrival rate; 0 = closed loop")
	campaignFrac := flag.Float64("campaign-frac", 0.1, "fraction of requests issued as campaign grids")
	repeatFrac := flag.Float64("repeat-frac", 0.4, "fraction of requests repeating an earlier body (exercises dedup + run cache)")
	fidelityFrac := flag.Float64("fidelity-frac", 0, "fraction of fresh requests issued with fidelity \"sampled\"")
	pages := flag.String("pages", "Alipay", "comma-separated page mix")
	governors := flag.String("governors", "interactive", "comma-separated governor mix")
	seed := flag.Int64("seed", 1, "request-mix seed (same seed = same request sequence)")
	warmupMs := flag.Int64("warmup-ms", 0, "warmup_ms on every request (0 = daemon default)")
	maxLoadMs := flag.Int64("max-load-ms", 0, "max_load_ms on every load request (0 = daemon default)")
	timeoutMs := flag.Int64("timeout-ms", 0, "timeout_ms on every request (0 = none)")
	jsonOut := flag.String("json", "", "write the JSON report to this file ('-' = stdout)")
	pr := flag.Int("pr", 8, "PR number stamped into the report")
	validate := flag.String("validate", "", "schema-check this saved JSON report and exit")
	logFlags := obslog.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			log.Fatal(err)
		}
		if err := loadgen.ValidateJSON(data); err != nil {
			log.Fatalf("%s: %v", *validate, err)
		}
		fmt.Printf("%s: valid %s document\n", *validate, loadgen.Schema)
		return
	}

	logger, logCloser, err := logFlags.Open("doraload")
	if err != nil {
		log.Fatal(err)
	}
	defer logCloser.Close()

	baseURL := *target
	var shutdownSelf func()
	if *self {
		if baseURL != "" {
			log.Fatal("-self and -target are mutually exclusive")
		}
		baseURL, shutdownSelf, err = startSelf(logger)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdownSelf()
	}
	if baseURL == "" {
		log.Fatal("need -target URL or -self (or -validate FILE); see -h")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:      baseURL,
		Transport:    *transport,
		Compress:     *compress,
		Duration:     *duration,
		Concurrency:  *concurrency,
		QPS:          *qps,
		CampaignFrac: *campaignFrac,
		RepeatFrac:   *repeatFrac,
		FidelityFrac: *fidelityFrac,
		Pages:        splitList(*pages),
		Governors:    splitList(*governors),
		Seed:         *seed,
		WarmupMs:     *warmupMs,
		MaxLoadMs:    *maxLoadMs,
		TimeoutMs:    *timeoutMs,
		Log:          logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep.PR = *pr
	if err := rep.Validate(); err != nil {
		log.Fatalf("generated report fails its own schema: %v", err)
	}

	printSummary(&rep)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

// startSelf boots an in-process dorad on a loopback port with a
// throwaway run cache (so -repeat-frac exercises warm hits the same
// way it would against a long-running daemon) and returns its base
// URL plus a shutdown func.
func startSelf(logger *obslog.Logger) (string, func(), error) {
	dir, err := os.MkdirTemp("", "doraload-self-*")
	if err != nil {
		return "", nil, err
	}
	cache, err := runcache.Open(filepath.Join(dir, "cache.json"))
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	srv := serve.NewServer(serve.Config{
		Cache:   cache,
		Metrics: telemetry.NewRegistry(),
		Log:     logger,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	hs := serve.NewHTTPServer("", srv.Handler())
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("self daemon: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	log.Printf("self daemon on %s (throwaway cache in %s)", base, dir)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.BeginDrain()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("self daemon shutdown: %v", err)
		}
		if err := srv.Drain(ctx); err != nil {
			log.Printf("self daemon drain: %v", err)
		}
		os.RemoveAll(dir)
	}
	return base, shutdown, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func printSummary(r *loadgen.Report) {
	fmt.Printf("target      %s (%s loop", r.Target, r.Mode)
	if r.QPS > 0 {
		fmt.Printf(", %.0f qps offered", r.QPS)
	}
	fmt.Printf(", c=%d)\n", r.Concurrency)
	for _, key := range []string{loadgen.TransportJSON, loadgen.TransportStream} {
		t := r.Transports[key]
		if t == nil {
			continue
		}
		fmt.Printf("[%s] %.1fs\n", t.Transport, t.DurationS)
		fmt.Printf("  requests    %d (%.1f req/s, %d errors, %d missed ticks)\n",
			t.Requests, t.ThroughputRPS, t.Errors, t.MissedTicks)
		fmt.Printf("  latency ms  p50=%.2f p90=%.2f p95=%.2f p99=%.2f mean=%.2f max=%.2f\n",
			t.Latency.P50Ms, t.Latency.P90Ms, t.Latency.P95Ms, t.Latency.P99Ms,
			t.Latency.MeanMs, t.Latency.MaxMs)
		if t.CampaignFirstResult != nil {
			fmt.Printf("  campaign ms first-result p50=%.2f p99=%.2f | full p50=%.2f p99=%.2f\n",
				t.CampaignFirstResult.P50Ms, t.CampaignFirstResult.P99Ms,
				t.CampaignFull.P50Ms, t.CampaignFull.P99Ms)
		}
		fmt.Printf("  status      %v\n", t.Status)
		fmt.Printf("  sources     %v (dedup %.1f%%, cache %.1f%%)\n",
			t.Sources, 100*t.DedupRate, 100*t.CacheHitRate)
	}
	if c := r.Comparison; c != nil {
		fmt.Printf("stream vs json: throughput x%.2f, p50 x%.2f, p99 x%.2f",
			c.ThroughputGain, c.P50Speedup, c.P99Speedup)
		if c.FirstResultSpeedup > 0 {
			fmt.Printf(", campaign first-result x%.2f", c.FirstResultSpeedup)
		}
		fmt.Println()
	}
}
