GO ?= go
# Benchmark artifacts are labeled with the revision they measure; a dirty
# working tree gets a -dirty suffix so numbers are never attributed to a
# commit they don't correspond to.
REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)$(shell test -z "$$(git status --porcelain 2>/dev/null)" || echo -dirty)
# bench writes here; bench-gate overrides it so a CI run never clobbers (or
# accidentally becomes) the committed baseline.
BENCH_OUT ?= BENCH_$(REV).json
# Per-fuzzer exploration budget of the fuzz smoke.
FUZZTIME ?= 15s

.PHONY: all build test perfbench-test race vet fmt-check staticcheck lint fuzz bench bench-all bench-gate cover serve smoke paper paper-small ci clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# staticcheck is optional locally (CI installs a pinned version; see
# .github/workflows/ci.yml). Skipping locally prints a notice so `make ci`
# stays honest about what it did not run.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

lint: fmt-check vet staticcheck

test: vet
	$(GO) test ./...

# perfbench is a module of its own (replace mcnet => ../), so `go test ./...`
# at the root never reaches it; this target vets and tests it in place.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz gives every fuzzer a short exploration budget beyond its committed
# corpus (go test accepts one -fuzz target per invocation).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzExpand$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzParseWorkload$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseOrganizationRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/system
	$(GO) test -run '^$$' -fuzz '^FuzzParseLinkClass$$' -fuzztime $(FUZZTIME) ./internal/units
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzGridEquivalence$$' -fuzztime $(FUZZTIME) ./internal/analytic

# bench runs the cross-layer hot-path benchmarks (internal/bench) and writes
# the raw `go test -json` stream to $(BENCH_OUT), plus a condensed
# machine-readable summary (name → ns/op, allocs/op) next to it. The summary
# printer is cmd/benchdiff, which parses the same artifact the gate consumes
# (and is portable: no GNU grep/sed extensions).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 1 -json ./internal/bench > $(BENCH_OUT)
	@$(GO) run ./cmd/benchdiff -list $(BENCH_OUT)
	@$(GO) run ./cmd/benchdiff -summary $(BENCH_OUT) > $(BENCH_OUT:.json=.summary.json)
	@echo wrote $(BENCH_OUT) and $(BENCH_OUT:.json=.summary.json)
	@if ls BENCH_*.json >/dev/null 2>&1; then $(GO) run ./cmd/benchdiff -trajectory BENCH_*.json; fi

# bench-all additionally runs every per-package benchmark in the repo
# (slower; not part of the regression artifact).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-gate is the CI benchmark regression gate: re-measure and compare
# against the committed BENCH_<rev>.json baseline, failing on >25% ns/op
# regression in any internal/bench benchmark. Refresh the baseline
# deliberately with: make bench && git rm BENCH_<old>.json && git add
# BENCH_<new>.json (see README).
bench-gate:
	@baseline="$$(git ls-files 'BENCH_*.json' | grep -v '\.summary\.json$$' || true)"; \
	if [ -z "$$baseline" ]; then echo "bench-gate: no committed BENCH_*.json baseline"; exit 1; fi; \
	if [ "$$(printf '%s\n' "$$baseline" | wc -l)" -ne 1 ]; then \
		echo "bench-gate: expected exactly one committed baseline, found:"; echo "$$baseline"; exit 1; fi; \
	$(MAKE) bench BENCH_OUT=BENCH_gate.json || exit 1; \
	status=0; $(GO) run ./cmd/benchdiff -threshold 1.25 "$$baseline" BENCH_gate.json || status=$$?; \
	rm -f BENCH_gate.json BENCH_gate.summary.json; exit $$status

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# serve runs the capacity-planning daemon locally (see cmd/mcserved -h for
# the knobs; ADDR overrides the listen address).
ADDR ?= 127.0.0.1:8080
serve:
	$(GO) run ./cmd/mcserved -addr $(ADDR)

# smoke boots mcserved on an ephemeral port, curls /healthz and /v1/analyze
# (a repeat must be a byte-identical cache hit; another load on the same org
# must report the same saturation_point), checks every response carries an
# X-Request-ID correlation header, runs a
# real simulate job through the queue and scrapes its per-tier contention
# report from /v1/jobs/{id}/telemetry, and pipes both Prometheus scrape
# forms (the dedicated endpoint and the Accept-negotiated /metrics, now
# carrying the mcserved_sim_tier_* families) through cmd/promlint — a
# malformed exposition fails the build. CI runs this as the serve-smoke
# job; locally it needs curl on PATH.
smoke:
	@command -v curl >/dev/null 2>&1 || { echo "smoke: curl not installed; skipping (CI runs it)"; exit 0; }; \
	set -e; \
	tmp="$$(mktemp -d)"; \
	$(GO) build -o "$$tmp/mcserved" ./cmd/mcserved; \
	$(GO) build -o "$$tmp/promlint" ./cmd/promlint; \
	"$$tmp/mcserved" -addr 127.0.0.1:0 -log-format json >"$$tmp/out" 2>"$$tmp/log" & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	url=""; i=0; while [ $$i -lt 100 ]; do \
		url="$$(sed -n 's/^mcserved: listening on //p' "$$tmp/out")"; \
		[ -n "$$url" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "smoke: server exited early:"; cat "$$tmp/out" "$$tmp/log"; exit 1; }; \
		i=$$((i+1)); sleep 0.1; \
	done; \
	[ -n "$$url" ] || { echo "smoke: server never came up:"; cat "$$tmp/out" "$$tmp/log"; exit 1; }; \
	echo "smoke: $$url"; \
	curl -fsS -D "$$tmp/hdrs" "$$url/healthz"; \
	grep -qi '^x-request-id:' "$$tmp/hdrs" || { echo "smoke: response missing X-Request-ID header"; exit 1; }; \
	curl -fsS -X POST -d '{"org":"org1","lambda":0.0003}' "$$url/v1/analyze" >"$$tmp/a1"; \
	curl -fsS -D "$$tmp/h2" -X POST -d '{"org":"org1","lambda":0.0003}' "$$url/v1/analyze" >"$$tmp/a2"; \
	cat "$$tmp/a1"; \
	grep -qi '^x-cache: hit' "$$tmp/h2" || { echo "smoke: repeated analyze was not a cache hit"; exit 1; }; \
	cmp -s "$$tmp/a1" "$$tmp/a2" || { echo "smoke: repeated analyze bodies differ"; cat "$$tmp/a2"; exit 1; }; \
	curl -fsS -X POST -d '{"org":"org1","lambda":0.0002}' "$$url/v1/analyze" >"$$tmp/a3"; \
	sat1="$$(sed -n 's/.*"saturation_point":\([^,}]*\).*/\1/p' "$$tmp/a1")"; \
	sat3="$$(sed -n 's/.*"saturation_point":\([^,}]*\).*/\1/p' "$$tmp/a3")"; \
	[ -n "$$sat1" ] && [ "$$sat1" = "$$sat3" ] || { echo "smoke: saturation_point changed with lambda: '$$sat1' vs '$$sat3'"; exit 1; }; \
	id="$$(curl -fsS -X POST -d '{"org":"org1","lambda":0.0003,"warmup":100,"measure":1000,"drain":100}' "$$url/v1/simulate" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')"; \
	[ -n "$$id" ] || { echo "smoke: simulate returned no job id"; exit 1; }; \
	i=0; while [ $$i -lt 100 ]; do \
		curl -fsS "$$url/v1/jobs/$$id" | grep -q '"status":"done"' && break; \
		i=$$((i+1)); sleep 0.1; \
	done; \
	[ $$i -lt 100 ] || { echo "smoke: simulate job never finished"; exit 1; }; \
	curl -fsS "$$url/v1/jobs/$$id/telemetry" | grep -q '"tiers"' || { echo "smoke: telemetry report missing tiers"; exit 1; }; \
	curl -fsS "$$url/metrics" >/dev/null; \
	curl -fsS "$$url/metrics/prometheus" | "$$tmp/promlint"; \
	curl -fsS -H 'Accept: text/plain' "$$url/metrics" | "$$tmp/promlint"; \
	echo "smoke: ok"

# paper runs the full reproduction pipeline: every manifest study at paper
# scale into paper_runs/<stamp>/ with schema-validated CSVs, agreement
# tables, charts, a perf-trajectory section over the committed BENCH
# artifacts and a machine-checked report.json verdict. Expect tens of
# minutes; paper-small is the CI-sized subset (quick scale, 5-point grids,
# <2 min). Both exit nonzero when the fidelity gate fails.
paper:
	$(GO) run ./cmd/mcrepro

paper-small:
	$(GO) run ./cmd/mcrepro -small

# ci mirrors .github/workflows/ci.yml so local runs reproduce the pipeline:
# lint job (fmt-check, vet, staticcheck), test job (build, test,
# perfbench-test, race, fuzz), the bench-gate, serve-smoke and repro-gate
# jobs.
ci: lint build test perfbench-test race fuzz bench-gate smoke paper-small

clean:
	$(GO) clean ./...
	rm -f cover.out BENCH_gate.json BENCH_gate.summary.json
	rm -rf paper_runs
