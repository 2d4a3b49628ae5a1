// Command doragate fronts a sharded dorad cluster: a stateless
// gateway that routes each request key (device fingerprint +
// canonicalized run options) to one worker via rendezvous hashing, so
// every worker's run cache and in-flight dedup shard naturally with
// zero coordination. Campaign grids fan out across the whole cluster
// with per-cell re-route-and-retry on worker failure; index-derived
// seeds keep the aggregate byte-identical to a single node at any
// cluster width.
//
// Membership starts from the static -workers list and is refined by
// periodic /healthz probing: a worker failing -fail-threshold
// consecutive probes is evicted from placement, a succeeding probe
// rejoins it, and draining workers stop receiving new placements
// while they finish in-flight requests. Workers must all simulate the
// same device — the gateway learns the device fingerprint from the
// first probe (or takes -fingerprint) and evicts any worker reporting
// a different one.
//
// Endpoints: POST /v1/load and /v1/campaign (proxied, same bodies as
// dorad), GET /v1/pages (proxied), GET /v1/cluster (membership
// snapshot), GET /healthz (503 until a worker is live), GET /metrics.
//
// Gateway→worker forwarding defaults to the binary wire stream (one
// pipelined connection per worker). It dials plain http:// only, so
// workers behind https, or behind a proxy that cannot pass an HTTP
// Upgrade, need -transport json (POST /v1/load per request); an https
// worker under the stream is refused at startup.
//
// Usage:
//
//	doragate -workers http://w1:8077,http://w2:8077 [-addr :8070]
//	         [-transport stream|json] [-probe-interval 2s]
//	         [-probe-timeout 1s] [-fail-threshold 3]
//	         [-forward-timeout 0] [-fanout N] [-fidelity exact]
//	         [-log-level info,access=warn] [-log-file doragate.log]
//
// Exit status: 0 after a clean shutdown (SIGINT/SIGTERM), 2 for bad
// flags or configuration, 1 when serving fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dora/internal/cluster"
	"dora/internal/fidelity"
	"dora/internal/obslog"
	"dora/internal/serve"
	"dora/internal/telemetry"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is doragate's whole life: parse args, serve until ctx is
// cancelled or a SIGINT/SIGTERM arrives, then shut down. It returns the
// process exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	logf := log.New(stderr, "doragate: ", 0)
	fs := flag.NewFlagSet("doragate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8070", "listen address")
	workers := fs.String("workers", "", "comma-separated dorad worker base URLs (required)")
	transport := fs.String("transport", cluster.TransportStream, "worker transport: stream (internal/wire, http:// workers only) or json (POST /v1/load; for https or Upgrade-blocking proxies)")
	fingerprint := fs.String("fingerprint", "", "expected device fingerprint (default: adopt from the first probe)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "health probe cadence")
	probeTimeout := fs.Duration("probe-timeout", time.Second, "per-worker probe deadline")
	failThreshold := fs.Int("fail-threshold", 3, "consecutive probe failures before a worker is evicted")
	forwardTimeout := fs.Duration("forward-timeout", 0, "per-attempt forward deadline; a slow worker turns into a re-route (0 = request deadline only)")
	fanout := fs.Int("fanout", 0, "campaign cells forwarded concurrently (0 = one per CPU)")
	fidelityFlag := fs.String("fidelity", "exact", "default simulation fidelity for requests that omit the field: exact|sampled")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight proxied requests")
	logFlags := obslog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var members []cluster.Member
	for _, raw := range strings.Split(*workers, ",") {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		members = append(members, cluster.Member{URL: u})
	}
	if len(members) == 0 {
		logf.Print("no workers: pass -workers http://host:8077[,...]")
		return 2
	}
	fid, err := fidelity.ParseMode(*fidelityFlag)
	if err != nil {
		logf.Print(err)
		return 2
	}

	logger, logCloser, err := logFlags.Open(stderr, "doragate")
	if err != nil {
		logf.Print(err)
		return 2
	}
	defer logCloser.Close()

	gw, err := cluster.NewGateway(cluster.Config{
		Members:         members,
		Transport:       *transport,
		Fingerprint:     *fingerprint,
		FailThreshold:   *failThreshold,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		ForwardTimeout:  *forwardTimeout,
		Fanout:          *fanout,
		DefaultFidelity: fid.String(),
		Metrics:         telemetry.NewRegistry(),
		Log:             logger,
	})
	if err != nil {
		logf.Print(err)
		return 2
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf.Print(err)
		return 1
	}

	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Background membership loop: probe immediately, then on the
	// configured cadence until shutdown.
	probeCtx, stopProbes := context.WithCancel(ctx)
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		gw.Run(probeCtx)
	}()
	defer func() {
		stopProbes()
		<-probesDone
	}()

	hs := serve.NewHTTPServer(*addr, gw.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	bound := ln.Addr().String()
	logf.Printf("listening on %s (%d workers, transport=%s)", bound, len(members), *transport)
	logger.Info().
		Str("addr", bound).
		Int("workers", len(members)).
		Str("transport", *transport).
		Msg("listening")

	select {
	case <-ctx.Done():
		logf.Printf("shutting down (up to %s)...", *drainTimeout)
		logger.Info().Msg("shutting down")
	case err := <-errCh:
		logf.Print(err)
		return 1
	}

	stopProbes()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		logf.Printf("shutdown: %v (forcing)", err)
		logger.Warn().Err(err).Msg("shutdown forced")
	}
	fmt.Fprintln(stdout, "doragate: stopped")
	return 0
}
