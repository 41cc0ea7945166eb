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

# Fork guard: the HTML decoration stages exist once, unexported in catalyst,
# where one front end runs them: catalyst.Middleware, in front of any handler
# or of internal/server's content server; the compiler keeps renders, map
# slots and resolves out of every other package. Fails when, in non-test
# code outside bench/ (which times the leaf functions themselves), snippet
# injection gains a second call site, the preload-hint cap a second
# definition, or internal/server a tenant path (DESIGN.md §3) — or when a
# package outside bench/ imports internal/delta, a diff library with no
# serving path that only the benchmark's layer timings call (DESIGN.md §3)
# — or when internal/server builds an admission gate:
# resilience.NewGate( is the front end's (DESIGN.md §3, §7) — or when a
# second reverse proxy is assembled beside catalyst.NewUpstream's, the one
# upstream leg, or a second edge assembly beside catalyst.NewEdge, the one
# -config stack the daemon and the cluster harness share: tenant.Handler( and
# cluster.NewExchange( are each called once, there (DESIGN.md §13) — or
# when the cache core grows a second
# eviction order beside GDSF's rank: a recency list, a touch counter, a policy
# parser or a ranker type (DESIGN.md §10) — or when a cache store splits
# into shards again: numShards, hashKey(, findVictimShard( or a []shard[
# slice in non-test internal/cachestore, where a store is one index, one
# mutex and one rank heap (DESIGN.md §7) — or when the RFC 9111 §4.3.4 304
# merge gains a second definition beside headers.MergeNotModified, or a
# hand-rolled copy loop over a 304's header in httpcache or catalyst,
# catalyst.Client's included (DESIGN.md §12) — or when
# catalyst.Middleware's page store goes back to keying renders by a content
# hash: it keys by URL and checks identity with IsRenderOf, so crypto/sha256
# has no business in non-test catalyst/ code (DESIGN.md §7) — or when the
# HTML tree comes back onto a serving path: htmlparse.ExtractPage extracts
# off the token stream, so htmlparse.Parse has no caller outside its own
# package, and the per-element link rules (the `case "iframe":` table) are
# defined once, for the tree walk and the stream alike (DESIGN.md §3) — or
# when the ETag map's reuse rule forks again: probeGen, minExpires or
# encodedMap back in non-test catalyst/, GetBytes( or renderKeyPool in any
# non-test code (DESIGN.md §7, §12) — or when a simulated load copies a
# response body again: append([]byte(nil), / bytes.Clone( / a non-header
# .Clone() in non-test httpcache, sw, browser, netsim or baselines,
# httptest anything (NewRecorder, NewRequest) back in non-test
# internal/server, whose origin adapter builds its request and records its
# response itself, or "unsafe" imported by any non-test file but the body
# view's (internal/httpcache/view.go) (DESIGN.md §3, §14) — or when a
# client store copies a header again or goes back onto the cache core: a
# header .Clone() or maps.Clone( in non-test httpcache or sw, which keep the
# response they are handed, or either importing internal/cachestore, whose
# budget and eviction order two unbounded stores have no use for (DESIGN.md
# §3) — or when the client decision of PROTOCOL.md §4 forks again:
# core.Decide( is called once, by sw.Worker, and catalyst.Client is a shell
# over that worker (DESIGN.md §6)
# — or when a stylesheet's references are extracted beside the middleware's
# one extraction: core.ExtractCSSRefs is named once in non-test code, as
# catalyst's extractCSSRefs (render.go), through which the RenderMemo
# extracts each stylesheet version once and the probe source its held text;
# core's own adapter for text resolvers calls it unqualified (DESIGN.md §7)
# — or when the emulated browser parses a body beside its parse memo:
# htmlparse.ExtractPage(, cssparse.ExtractRefs( and jsexec.ExtractFetches(
# are each called once in non-test internal/browser, in memo.go, so every
# parse goes through the memo a sweep shares among a site's worlds — or
# resolves a reference beside it: url.Parse(, ResolveReference( and
# resolveRef( have no caller in non-test internal/browser outside memo.go,
# which keeps each body's references resolved per document URL — or when a
# bundling origin assembles a push bundle beside its
# bundle memo: json.Marshal(entries) is called once in non-test
# internal/baselines, in bundle.go's memo fill (DESIGN.md §3) — or when the
# emulated browser starts a trace of its own: telemetry.StartTrace( has no
# caller in non-test internal/browser, because a load records only into the
# trace its caller passes (DESIGN.md §8) — or when internal/harness grows a
# second experiment runner or revisit schedule: forEachSite(, newWorld(
# (besides NewWorld's) and .Advance( (besides World.Advance's) each have
# exactly one caller in non-test internal/harness, the runner's and
# World.revisit's (DESIGN.md §3, §4) — or when catalyst or internal/cluster
# reads an age off the wall clock: time.Now(, time.Since( and time.Until(
# appear there only in the html_ns stage timing (htmlStart), because every
# age reads the injected vclock.Clock, and no Now func() time.Time field
# stands in for a clock anywhere (DESIGN.md §7, "Frozen values").
FORK_SRC = $(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}' ./... | tr ' ' '\n' | grep -v '/bench/'
forks:
	@fail=0; src=$$($(FORK_SRC)); \
	for pat in 'core\.\(InjectRegistration\|RegistrationOffset\)(' 'maxPreloadHints *=' 'httputil\.NewSingleHostReverseProxy(' 'tenant\.Handler(' 'cluster\.NewExchange(' 'func MergeNotModified(' 'case "iframe":'; do \
		n=$$(grep -h "$$pat" $$src | grep -vc '^[[:space:]]*//'); \
		if [ "$$n" -ne 1 ]; then echo "forks: '$$pat' appears $$n times in non-test code, want 1:" >&2; grep -n "$$pat" $$src >&2; fail=1; fi; \
	done; \
	for chk in '/internal/cachestore/:pushFront(\|relink(\|touch\.Add(\|ParsePolicy(\|type [A-Za-z]*[rR]anker' \
		'/internal/cachestore/:numShards\|hashKey(\|findVictimShard(\|\[\]shard\[' \
		'/internal/httpcache/\|/catalyst/:range [A-Za-z0-9_.]*\([nN]ot[mM]odified\|304\|httpResp\)[A-Za-z0-9_]*\.Header' \
		'/catalyst/[^/]*\.go$$:"crypto/sha256"' '/:htmlparse\.Parse(' \
		'/catalyst/[^/]*\.go$$:probeGen\|minExpires\|encodedMap' '/:GetBytes(\|renderKeyPool' \
		'/internal/server/:httptest\.' \
		'/internal/server/:resilience\.NewGate('; do \
		files=$$(echo "$$src" | tr ' ' '\n' | grep "$${chk%%:*}"); \
		if grep -Hn "$${chk#*:}" $$files | grep -v ':[0-9]*:[[:space:]]*//' >&2; then \
			echo "forks: '$${chk#*:}' is back in non-test code under '$${chk%%:*}', want 0" >&2; fail=1; fi; \
	done; \
	body=$$(echo "$$src" | grep '/internal/\(httpcache\|sw\|browser\|netsim\|baselines\)/'); \
	if grep -Hn 'append(\[\]byte(nil),\|bytes\.Clone(\|\.Clone()' $$body | grep -v '[hH]eader\(()\)\?\.Clone()\|:[0-9]*:[[:space:]]*//' >&2; then \
		echo "forks: a simulated load copies a response body again; stores and parsers share it (DESIGN.md §3)" >&2; fail=1; fi; \
	if grep -Hn '[hH]eader\(()\)\?\.Clone()\|maps\.Clone(' $$(echo "$$body" | grep '/internal/\(httpcache\|sw\)/') | grep -v ':[0-9]*:[[:space:]]*//' >&2; then \
		echo "forks: a client store copies a header again; it keeps the response it is handed (DESIGN.md §3)" >&2; fail=1; fi; \
	if $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/httpcache ./internal/sw | grep ' cachecatalyst/internal/cachestore\( \|$$\)' >&2; then \
		echo "forks: a client store is back on internal/cachestore; httpcache and sw are maps under a mutex (DESIGN.md §3)" >&2; fail=1; fi; \
	if grep -Hn '^[[:space:]]*\(import[[:space:]]*\)\?\(_[[:space:]]*\)\?"unsafe"' $$src | grep -v '/internal/httpcache/view\.go:' >&2; then \
		echo "forks: \"unsafe\" imported outside internal/httpcache/view.go, the one read-only body view" >&2; fail=1; fi; \
	brw=$$(echo "$$src" | grep '/internal/browser/'); \
	for pat in 'htmlparse\.ExtractPage(' 'cssparse\.ExtractRefs(' 'jsexec\.ExtractFetches('; do \
		calls=$$(grep -Hn "$$pat" $$brw | grep -v ':[0-9]*:[[:space:]]*//'); \
		if [ "$$(echo "$$calls" | grep -c '/internal/browser/memo\.go:')" -ne 1 ] || [ "$$(echo "$$calls" | grep -c .)" -ne 1 ]; then \
			echo "forks: '$$pat' is called $$(echo "$$calls" | grep -c .) times in non-test internal/browser, want once, in memo.go:" >&2; echo "$$calls" >&2; fail=1; fi; \
	done; \
	if grep -Hn 'ResolveReference(\|url\.Parse(\|resolveRef(' $$brw | grep -v '/internal/browser/memo\.go:\|:[0-9]*:[[:space:]]*//' >&2; then \
		echo "forks: the emulated browser resolves a reference outside memo.go, beside the memo that keeps resolved references (DESIGN.md §3)" >&2; fail=1; fi; \
	bnd=$$(grep -Hn 'json\.Marshal(entries)' $$(echo "$$src" | grep '/internal/baselines/') | grep -v ':[0-9]*:[[:space:]]*//'); \
	if [ "$$(echo "$$bnd" | grep -c '/internal/baselines/bundle\.go:')" -ne 1 ] || [ "$$(echo "$$bnd" | grep -c .)" -ne 1 ]; then \
		echo "forks: 'json.Marshal(entries)' is called $$(echo "$$bnd" | grep -c .) times in non-test internal/baselines, want once, in bundle.go's memo fill:" >&2; echo "$$bnd" >&2; fail=1; fi; \
	if grep -Hn 'telemetry\.StartTrace(' $$brw | grep -v ':[0-9]*:[[:space:]]*//' >&2; then \
		echo "forks: the emulated browser starts a trace of its own; a load records only into its caller's (DESIGN.md §8)" >&2; fail=1; fi; \
	hrn=$$(echo "$$src" | grep '/internal/harness/'); \
	for pat in 'forEachSite(' 'newWorld(' '\.Advance('; do \
		calls=$$(grep -Hn "$$pat" $$hrn | grep -v ':[0-9]*:[[:space:]]*//\|:[0-9]*:func \(([a-z]* \*World) \)\?[A-Za-z]*(\|return newWorld(generate('); \
		if [ "$$(echo "$$calls" | grep -c .)" -ne 1 ]; then \
			echo "forks: '$$pat' has $$(echo "$$calls" | grep -c .) callers in non-test internal/harness, want 1, the one runner or revisit schedule:" >&2; echo "$$calls" >&2; fail=1; fi; \
	done; \
	dec=$$(grep -Hn 'core\.Decide(' $$src | grep -v ':[0-9]*:[[:space:]]*//'); \
	if [ "$$(echo "$$dec" | grep -c /internal/sw/)" -ne 1 ] || [ "$$(echo "$$dec" | grep -c .)" -ne 1 ]; then \
		echo "forks: core.Decide( is called $$(echo "$$dec" | grep -c .) times in non-test code, want once, in internal/sw:" >&2; echo "$$dec" >&2; fail=1; fi; \
	css=$$(grep -Hn 'core\.ExtractCSSRefs' $$src | grep -v ':[0-9]*:[[:space:]]*//'); \
	if [ "$$(echo "$$css" | grep -c '/catalyst/render\.go:')" -ne 1 ] || [ "$$(echo "$$css" | grep -c .)" -ne 1 ]; then \
		echo "forks: core.ExtractCSSRefs is named $$(echo "$$css" | grep -c .) times in non-test code, want once, as catalyst's extractCSSRefs:" >&2; echo "$$css" >&2; fail=1; fi; \
	age=$$(echo "$$src" | grep '/catalyst/[^/]*\.go$$\|/internal/cluster/'); \
	if grep -Hn 'time\.\(Now\|Since\|Until\)(' $$age | grep -v ':[0-9]*:[[:space:]]*//\|htmlStart' >&2; then \
		echo "forks: catalyst or internal/cluster reads the wall clock outside the stage timing; an age reads the injected vclock.Clock (DESIGN.md §7)" >&2; fail=1; fi; \
	if grep -Hn 'Now[[:space:]]\+func()[[:space:]]*time\.Time' $$src | grep -v ':[0-9]*:[[:space:]]*//' >&2; then \
		echo "forks: a Now func() time.Time field stands in for a clock; take a vclock.Clock or the caller's time (DESIGN.md §7)" >&2; fail=1; fi; \
	if $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -v '^[^:]*/bench: ' | grep ' cachecatalyst/internal/delta\( \|$$\)' >&2; then \
		echo "forks: a package outside bench/ imports internal/delta; delta-encoded serving is deleted (DESIGN.md §3)" >&2; fail=1; fi; \
	if $(GO) list -f '{{join .Imports "\n"}}' ./internal/server | grep -q 'internal/tenant$$'; then \
		echo "forks: internal/server imports internal/tenant; the tenant path belongs to catalyst.Middleware" >&2; fail=1; fi; \
	exit $$fail

# Short fuzz pass over the hostile-input parsers (X-Etag-Config decoding,
# map building, cache-trace parsing, delta patches, probe targets out of
# upstream HTML, the HTML parser itself and the streaming extractor checked
# against it, an upstream's Server-Timing header), the probe writer's commit
# rules over whatever an upstream handler writes, the render cache's
# raw-page compare, the 304 header merge
# the held page and the browser cache share, the fixed-offset HTTP date
# reader and the origin adapter's request-target builder (each held to the
# standard library parser it stands in for), and the two inputs that cross
# into the daemon from outside: a peer's hot-map announcement and
# catalystd.json. The corpus seeds also run as part of plain `go test`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeMap -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzBuildMap -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzParseTrace -fuzztime=10s ./internal/cachesim/
	$(GO) test -run=^$$ -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/delta/
	$(GO) test -run=^$$ -fuzz=FuzzProbeTarget -fuzztime=10s ./catalyst/
	$(GO) test -run=^$$ -fuzz=FuzzHotMatch -fuzztime=10s ./catalyst/
	$(GO) test -run=^$$ -fuzz=FuzzProbeWriter -fuzztime=10s ./catalyst/
	$(GO) test -run=^$$ -fuzz=FuzzParseServerTiming -fuzztime=10s ./internal/telemetry/
	$(GO) test -run=^$$ -fuzz=FuzzMergeNotModified -fuzztime=10s ./internal/headers/
	$(GO) test -run=^$$ -fuzz=FuzzParseHTTPDate -fuzztime=10s ./internal/headers/
	$(GO) test -run=^$$ -fuzz=FuzzRequestTarget -fuzztime=10s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/htmlparse/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeEntities -fuzztime=10s ./internal/htmlparse/
	$(GO) test -run=^$$ -fuzz=FuzzExtractPage -fuzztime=10s ./internal/htmlparse/
	$(GO) test -run=^$$ -fuzz=FuzzHotMapAnnouncement -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzParseConfig -fuzztime=10s ./internal/tenant/

# Scheme-matrix smoke: the conformance suite (golden table, shape claims,
# determinism, cancellation under -race, and the parse, render and bundle memos'
# differential tests, whose sweeps share one memo of each per site on one
# goroutine: -race reports a memo two goroutines touch) plus one live run of the command,
# and the determinism check on the sweep's job shape: the headline sweep
# prints the same bytes at -parallel 1 and -parallel 4. See EXPERIMENTS.md,
# "Scheme matrix".
schemes:
	$(GO) test -race -count=1 -run 'SchemeMatrix|Scheme|EarlyHints|Broken|Memo' \
		./internal/harness/ ./internal/browser/ ./internal/server/ ./catalyst/
	$(GO) run ./cmd/schemes -sites 8
	$(GO) run ./cmd/pltbench -experiment headline -sites 3 -json -parallel 1 > headline.p1.json
	$(GO) run ./cmd/pltbench -experiment headline -sites 3 -json -parallel 4 > headline.p4.json
	cmp headline.p1.json headline.p4.json
	rm -f headline.p1.json headline.p4.json

# Cache-policy smoke: replay the committed harness-exported trace and a
# synthetic Zipf/lognormal trace through the cache core's GDSF order,
# checking ratios stay within [0,1], the replay does not beat the FOO-style
# offline bound, and it scores hits. See EXPERIMENTS.md, "Cache policies vs
# the offline optimal bound".
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
# in-process instances of the daemon's -config stack (catalyst.NewEdge)
# serving two tenants through the consistent-hash ring, telemetry-verified
# per-tenant hit ratios and health checkers, hot-map adoption on a
# non-owner, and a kill-one-node assertion — plus the tenant/cluster unit
# suites. See DESIGN.md §13, "Tenant-aware edge tier".
cluster:
	$(GO) test -race -count=1 -run 'ClusterCell|Ring|Exchange|Tenant|Resolver|Context|Handler|ParseConfig' \
		./internal/harness/ ./internal/cluster/ ./internal/tenant/ ./catalyst/ ./cmd/catalystd/

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
