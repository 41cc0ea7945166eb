# Developer entry points. `make verify` is the gate every change must pass:
# vet, build, and the full test suite (chaos matrix included) under the race
# detector.

GO ?= go

.PHONY: verify build test race vet forks fuzz chaos bench benchdiff perf perf-compare cover cachesim schemes cluster

verify: vet forks build race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fork guard: the HTML decoration pipeline exists once (internal/decorate),
# and catalyst.Middleware and internal/server are adapters over it. Fails
# when, in non-test code outside bench/ (which times the leaf functions
# themselves), snippet injection or delta diffing gains a second call site,
# the preload-hint cap a second definition, or internal/server a tenant
# path (DESIGN.md §3) — or when a second reverse proxy is assembled beside
# catalyst.NewUpstreamProxy, the one upstream leg the daemon and the cluster
# harness share (DESIGN.md §13) — or when the cache core's retired forks grow
# back: a policy knob on a cache no construction bounds (the browser cache,
# the SW storage, catalyst.Client), or a recency list beside the rank heap
# (DESIGN.md §7) — or when the RFC 9111 §4.3.4 304 merge gains a second
# definition beside headers.MergeNotModified, or a hand-rolled copy loop over
# a 304's header in httpcache or catalyst (DESIGN.md §12) — or when
# catalyst.Middleware's page store goes back to keying renders by a content
# hash: it keys by URL and checks identity with IsRenderOf, so crypto/sha256
# has no business in non-test catalyst/ code (DESIGN.md §7) — or when the
# HTML tree comes back onto a serving path: htmlparse.ExtractPage extracts
# off the token stream, so htmlparse.Parse has no caller outside its own
# package, and the per-element link rules (the `case "iframe":` table) are
# defined once, for the tree walk and the stream alike (DESIGN.md §3).
FORK_SRC = $(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}' ./... | tr ' ' '\n' | grep -v '/bench/'
forks:
	@fail=0; src=$$($(FORK_SRC)); \
	for pat in 'core\.\(InjectRegistration\|RegistrationOffset\)(' 'delta\.Diff(' 'maxPreloadHints *=' 'httputil\.NewSingleHostReverseProxy(' 'func MergeNotModified(' 'case "iframe":'; do \
		n=$$(grep -h "$$pat" $$src | grep -vc '^[[:space:]]*//'); \
		if [ "$$n" -ne 1 ]; then echo "forks: '$$pat' appears $$n times in non-test code, want 1:" >&2; grep -n "$$pat" $$src >&2; fail=1; fi; \
	done; \
	for chk in '/internal/\(sw\|httpcache\|browser\)/\|/catalyst/client\.go$$:cachestore\.Policy' '/internal/cachestore/:pushFront(\|relink(' \
		'/internal/httpcache/\|/catalyst/:range [A-Za-z0-9_.]*\([nN]ot[mM]odified\|304\)[A-Za-z0-9_]*\.Header' \
		'/catalyst/[^/]*\.go$$:"crypto/sha256"' '/:htmlparse\.Parse('; do \
		files=$$(echo "$$src" | tr ' ' '\n' | grep "$${chk%%:*}"); \
		if grep -Hn "$${chk#*:}" $$files | grep -v ':[0-9]*:[[:space:]]*//' >&2; then \
			echo "forks: '$${chk#*:}' is back in non-test code under '$${chk%%:*}', want 0" >&2; fail=1; fi; \
	done; \
	if $(GO) list -f '{{join .Imports "\n"}}' ./internal/server | grep -q 'internal/tenant$$'; then \
		echo "forks: internal/server imports internal/tenant; the tenant path belongs to catalyst.Middleware" >&2; fail=1; fi; \
	exit $$fail

# Short fuzz pass over the hostile-input parsers (X-Etag-Config decoding,
# map building, cache-trace parsing, delta patches, probe targets out of
# upstream HTML, the HTML parser itself and the streaming extractor checked
# against it), the render cache's raw-page compare, and the 304 header merge
# the held page and the browser cache share. The corpus seeds also run as
# part of plain `go test`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeMap -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzBuildMap -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzParseTrace -fuzztime=10s ./internal/cachesim/
	$(GO) test -run=^$$ -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/delta/
	$(GO) test -run=^$$ -fuzz=FuzzProbeTarget -fuzztime=10s ./catalyst/
	$(GO) test -run=^$$ -fuzz=FuzzHotMatch -fuzztime=10s ./catalyst/
	$(GO) test -run=^$$ -fuzz=FuzzMergeNotModified -fuzztime=10s ./internal/headers/
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/htmlparse/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeEntities -fuzztime=10s ./internal/htmlparse/
	$(GO) test -run=^$$ -fuzz=FuzzExtractPage -fuzztime=10s ./internal/htmlparse/

# Scheme-matrix smoke: the conformance suite (golden table, shape claims,
# determinism, cancellation under -race) plus one live run of the command.
# See EXPERIMENTS.md, "Scheme matrix".
schemes:
	$(GO) test -race -count=1 -run 'SchemeMatrix|Scheme|Delta|EarlyHints|Negative' \
		./internal/harness/ ./internal/browser/ ./internal/delta/ ./catalyst/
	$(GO) run ./cmd/schemes -sites 8

# Cache-policy smoke: replay the committed harness-exported trace and a
# synthetic Zipf/lognormal trace through every policy, checking ratios stay
# within [0,1], no policy beats the FOO-style offline bound, and every
# policy scores hits. See EXPERIMENTS.md, "Cache policies vs the offline
# optimal bound".
cachesim:
	$(GO) run ./cmd/cachesim -trace internal/cachesim/testdata/harness_quick.trace -budget 40% -check
	$(GO) run ./cmd/cachesim -synth -requests 60000 -objects 4000 -budget 2% -check

# Benchmark sweep with pinned -benchtime/-count so runs are benchstat-
# comparable across commits. The cache core runs a second time at -cpu 1,2:
# absolute ns/op drifts on a shared box, the hit path's 1 → 2 core ratio
# does not (benchdiff lists the two as Name/cpu=1 and Name/cpu=2). Output
# lands in BENCH_<date>.json (`go test -json` stream); extract the text
# lines for benchstat with:
#   jq -r 'select(.Action=="output") | .Output' BENCH_A.json > a.txt
#   benchstat a.txt b.txt
# See EXPERIMENTS.md, "Cache-core and middleware micro-benchmarks".
BENCH_FILE ?= BENCH_$(shell date +%F).json
bench:
	$(GO) test -json -run '^$$' -bench . -benchtime 1s -count 6 \
		./catalyst/ ./internal/cachestore/ ./internal/server/ \
		./internal/core/ ./internal/htmlparse/ > $(BENCH_FILE)
	$(GO) test -json -run '^$$' -bench . -benchtime 1s -count 6 -cpu 1,2 \
		./internal/cachestore/ >> $(BENCH_FILE)
	@echo "wrote $(BENCH_FILE)"

# Run the benchmark sweep and compare it against the newest committed
# BENCH_*.json using the in-repo, dependency-free cmd/benchdiff. Fails
# loudly when no committed baseline exists — a diff against nothing is not
# a regression gate. ns/op is printed, never gated: it drifts between
# sessions on a shared machine by more than any fixed tolerance. The gate
# is memory only: a B/op or allocs/op median rising from zero always fails,
# and BENCH_TOLERANCE (a percentage) also fails a memory median that rose
# by more than it.
BENCH_TOLERANCE ?= 0
benchdiff:
	@base=$$(git ls-files 'BENCH_*.json' | sort | tail -1); \
	if [ -z "$$base" ]; then \
		echo "benchdiff: no committed BENCH_*.json baseline found; run 'make bench' and commit the result first" >&2; \
		exit 1; \
	fi; \
	echo "baseline: $$base"; \
	$(MAKE) bench BENCH_FILE=BENCH_head.json && \
	$(GO) run ./cmd/benchdiff -tolerance $(BENCH_TOLERANCE) "$$base" BENCH_head.json

# The repository's benchmark (bench/README.md, BENCHMARK.json): the five
# end-to-end workloads driven against the real programs — what performance
# PRs claim on. `make perf W=page_churn SEED=3` runs one workload;
# PERF_FLAGS takes the rest (`-trace 1` for the per-layer ledger, `-json
# FILE` to append the run to a file). `make perf-compare A=parent.json
# B=change.json` judges two such files. About 90 s for all workloads, so
# not part of `make verify`.
W ?= all
SEED ?= 1
perf:
	$(GO) run ./bench -workload $(W) -seed $(SEED) $(PERF_FLAGS)

perf-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make perf-compare A=parent.json B=change.json" >&2; exit 2; }
	$(GO) run ./bench -compare $(A) $(B)

# Coverage with a floor so the suite cannot silently shed coverage. The
# gated total is taken over library code only — every package not named
# main — because the programs (bench/, cmd/*, examples/*) are driven end to
# end rather than unit-tested; each is printed beside it for information.
# The floor trails the measured library total (90.9% when set) by about two
# points, so a real drop fails; raise it as coverage grows.
COVERAGE_FLOOR ?= 89.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) list -f '{{.ImportPath}} {{.Name}}' ./... | awk ' \
		NR == FNR { main[$$1] = $$2 == "main"; next } \
		FNR == 1 { print > "cover.lib.out"; next } \
		{ pkg = $$1; sub(/\/[^\/]*:.*/, "", pkg) } \
		!main[pkg] { print > "cover.lib.out"; next } \
		{ stmts[pkg] += $$2; if ($$3 > 0) hit[pkg] += $$2 } \
		END { for (p in stmts) printf "  %-40s %5.1f%% (informational)\n", p, 100 * hit[p] / stmts[p] | "sort" }' \
		- cover.out
	@total=$$($(GO) tool cover -func=cover.lib.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "library coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || { \
		echo "cover: library coverage $$total% fell below the $(COVERAGE_FLOOR)% floor" >&2; exit 1; }

# Cluster smoke: the multi-instance edge-tier cell under -race — three
# in-process catalystd instances serving two tenants through the
# consistent-hash ring, telemetry-verified per-tenant hit ratios, hot-map
# adoption on a non-owner, and a kill-one-node assertion — plus the
# tenant/cluster unit suites and one live run via the example. See
# DESIGN.md §13, "Tenant-aware edge tier".
cluster:
	$(GO) test -race -count=1 -run 'ClusterCell|Ring|Exchange|Tenant|Resolver|Context|Handler|ParseConfig' \
		./internal/harness/ ./internal/cluster/ ./internal/tenant/ ./catalyst/ ./cmd/catalystd/
	$(GO) run ./examples/cluster

# Chaos gate: the fault-injection and overload suites under the race
# detector — the browser-level chaos matrix, the middleware degradation
# ladder, the netsim overload fault modes, the resilience primitives, and
# kill-under-drain — then the fault-injection table: warm PLT / errors /
# retries per fault cell for both schemes (see EXPERIMENTS.md, "Fault
# model and chaos experiment").
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Overload|Ladder|Breaker|Drain|Gate|Budget|Serve|Stall|Handler' \
		./internal/browser/ ./internal/netsim/ ./internal/resilience/ ./internal/server/ ./catalyst/
	$(GO) run ./examples/chaos
