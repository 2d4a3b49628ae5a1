GO ?= go

.PHONY: build test test-short race lint lint-report bench bench-sampled bench-ab serve-test stream-test cluster-test fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Parallel-determinism sweep: the same short test suite with a 4-way
# worker pool and the race detector watching the fan-out.
race:
	DORA_WORKERS=4 $(GO) test -short -race ./...

# Static analysis: go vet plus the repository's own doralint suite
# (maporder, chanclose, goroleak, locksafe, detflow). Both run offline
# with nothing but the Go toolchain.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/doralint ./...

# Refresh LINT_REPORT.json, the per-rule finding counts diffed across
# PRs the way the BENCH_*.json files are.
lint-report:
	scripts/lint_report.sh

# End-to-end daemon suite: every dorad endpoint driven over real HTTP
# (httptest) with the race detector watching the admission queue,
# singleflight dedup, and drain machinery. Includes the serve-path
# golden campaign fingerprint (not -short).
serve-test:
	$(GO) test -race -v ./internal/serve/

# 30 s of coverage-guided fuzzing per committed target: the request
# decoder, the run-cache loader, the wire payload codecs, the wire
# frame layer, the gateway router, the cache tag match, the private
# L1 against its LRU model, and the HTML and CSS parsers. Seed corpora
# live under each package's testdata/fuzz/ and replay in plain
# `go test` runs. This is the one list; CI's fuzz step runs this
# target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadRequestDecode$$' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRunCacheEntry$$' -fuzztime 30s ./internal/runcache/
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 30s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameRead$$' -fuzztime 30s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzGatewayRoute$$' -fuzztime 30s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzTagMatch$$' -fuzztime 30s ./internal/cache/
	$(GO) test -run '^$$' -fuzz '^FuzzPrivateL1$$' -fuzztime 30s ./internal/cache/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/webdoc/
	$(GO) test -run '^$$' -fuzz '^FuzzParseCSS$$' -fuzztime 30s ./internal/webdoc/

# Sharded-cluster suite under the race detector: HRW placement and
# membership unit tests, gateway refusal paths, and the in-process
# multi-node harness e2e — fault injection (kill/hang/fault bursts/
# latency/drain) on both transports plus the golden campaign
# fingerprint replayed through the gateway at widths 1, 2, and 4 over
# both transports (not -short) — and the doragate and dorad run seams.
cluster-test:
	$(GO) test -race -v ./internal/cluster/... ./cmd/doragate/ ./cmd/dorad/

# Wire codec + stream e2e suites under the race detector, the same
# slice the CI `stream` job runs.
stream-test:
	$(GO) test -race -v ./internal/wire/
	$(GO) test -race -run '^TestStream|^TestServeCampaignFingerprintGoldenStream$$' -v ./internal/serve/

# Record the sampled-fidelity validation trajectory: the full page ×
# co-run matrix in both modes, gated on the ≤2%/≤5% error budget and
# the ≥5x campaign speedup, into BENCH_SAMPLED.json.
bench-sampled:
	scripts/bench_sampled.sh

# A/B the repository benchmark between two commits (default HEAD~1 vs
# HEAD, 10 alternated pairs of each BENCHMARK.json workload, runs of its
# run_seconds) into BENCH_AB.json.
#   make bench-ab ARGS="-k 10 -o BENCH_KERNEL.json campaign-exact"
ARGS ?=
bench-ab:
	scripts/bench_ab.sh $(ARGS)

# The current kernel performance record: 10 alternated pairs of
# dorabench's campaign-exact between HEAD~1 and HEAD, into
# BENCH_KERNEL.json. Bit identity is checked by TestCampaignFingerprintGolden
# (tier-1) and by dorabench's per-grid SHA-256 check on every run.
bench:
	scripts/bench_ab.sh -k 10 -o BENCH_KERNEL.json campaign-exact
