GO ?= go
GOFMT ?= gofmt

# Coverage floor (percent of statements) for the engine package.
CORE_COVER_FLOOR ?= 85

.PHONY: all build vet lint test race race-obs bench bench-check bench-pairs bench-tables bench-smoke decomp-smoke fuzz-smoke serve-smoke net-smoke cover loc ci

all: ci

build:
	$(GO) build ./...

# vet also fails on any Go file gofmt would rewrite, outside bench/
# (its own module, whose files the benchmark pins).
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l . | grep -v -e '^bench/' -e '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Static invariants: build the pslint multichecker and run its three
# analyzers (determinism, bufownership, resourcelifetime — DESIGN.md
# §10/§15) over the whole tree through the vet driver, timing the pass
# so lint wall-time regressions show up in CI logs. Any unannotated
# finding fails the build. PSLINT_JSON=1 switches the findings to JSON
# lines. The analyzers' own fixture corpus and cmd/pslint's end-to-end
# tests run under `make test`.
lint:
	$(GO) build -o bin/pslint ./cmd/pslint
	@start=$$(date +%s); \
	$(GO) vet -vettool=$(CURDIR)/bin/pslint ./...; status=$$?; \
	echo "pslint wall time: $$(($$(date +%s)-start))s"; exit $$status

test:
	$(GO) test ./...

# Full suite under the race detector. The profiled-run tests double as
# the proof that the zero-sync recorder design is race-free.
race:
	$(GO) test -race ./...

# Focused race check over traced/profiled parallel runs.
race-obs:
	$(GO) test -race ./internal/core/ -run 'Profile|Profiled|Figure2'

# The repository's benchmark: BENCHMARK.json's command. Builds
# bench/psperf into .bench_build/ and runs all six workloads end to end
# and layer by layer (bench/README.md, which also lists the flags
# bench/run.sh takes for a single workload).
bench:
	bash bench/run.sh

# The benchmark against the parent commit: every workload once on a
# temporary checkout of the base (HEAD if the tree is dirty, else HEAD^;
# BASE=<rev> overrides) and on this tree. Fails on a wrong golden
# digest, on any move in virtual_s / imbalance_mean, or on
# allocs_per_frame / alloc_mb_per_frame rising past their BENCHMARK.json
# bounds (2 % / 8 %); timing is printed as advisory. ~3 min.
bench-check:
	sh scripts/bench_check.sh

# A timing claim's evidence: W=<workload> run PAIRS=10 times on a
# temporary checkout of BASE (default as bench-check) and on this tree,
# alternated, the side that goes first swapped every pair. Prints each
# side's median and quartiles of frames_per_s and cpu_ms_per_frame, the
# pairs the tree won, and whether ROADMAP's claim rule (≥ 9 wins in 10,
# medians further apart than the base's IQR) holds; for
# allocs_per_frame, alloc_mb_per_frame, peak_rss_mb and setup_s, each
# side's median, the relative change and the BENCHMARK.json bound (no
# claim rule). Fails on any run
# that is not correct:true, failed:0. Each run is psperf at --seconds
# <BENCHMARK.json's run_seconds>, which sets its timed repetitions
# (round(seconds / 5), 3 at 15), not its wall time; SEED overrides the
# seed. ~6 min at the defaults. W=all does every BENCHMARK.json
# workload in turn (~35 min) and ends with one summary line per
# workload.
bench-pairs:
	sh scripts/bench_pairs.sh

# Full paper-table benchmark suite (slow; regenerates every experiment).
bench-tables:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench/ is a module of its own, invisible to build/vet/test above:
# vet it and run its tests (generator, schema agreement with
# BENCHMARK.json, a smoke pass of every workload, the verifier) so the
# benchmark cannot rot against the engine.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Decomposition smoke: the slab bit-neutrality gate, the sequential
# equivalence of the grid and Voronoi strategies, the clustered-scenario
# imbalance regression, and a one-shot run of the imbalance suite.
decomp-smoke:
	$(GO) test -run 'TestDecomp|TestClustered' ./internal/core/ ./internal/domain/ ./internal/experiments/
	$(GO) test -run '^$$' -bench 'DecompImbalance' -benchtime 1x ./internal/experiments/

# Ten seconds of actual fuzzing per fuzz target, so the corpora in
# testdata/fuzz keep growing and the fuzzers do more in CI than
# compile. The packages are the directories whose _test.go files
# declare a `func Fuzz` (bench/ is its own module; testdata/ holds
# fixtures), and target names are discovered with `go test -list`, so
# new fuzzers join automatically.
FUZZ_PKGS = $(shell grep -rl --include='*_test.go' --exclude-dir=bench --exclude-dir=testdata '^func Fuzz' . | xargs -n1 dirname | sort -u)

fuzz-smoke:
	@set -e; for pkg in $(FUZZ_PKGS); do \
	  for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
	    echo "fuzz $$pkg $$f"; \
	    $(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$pkg; \
	  done; \
	done

# Net fabric smoke: launch a 4-process psnode loopback cluster (1
# manager + 1 image generator + 2 calculators over real TCP sockets),
# diff the image generator's per-frame checksums against the same
# scenario's in-process `psanim -checksums` run, and scrape one live
# /metrics exposition per rank.
net-smoke:
	GO=$(GO) sh scripts/net_smoke.sh

# Telemetry smoke: run `psanim -serve` on a small scenario and drive
# the live HTTP plane end to end — /healthz, /metrics (validated by
# psbench -checkprom and checked for an engine counter family),
# /status, /trace, and a clean SIGINT shutdown.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# Coverage report, gated: internal/core (the engine) must stay at or
# above CORE_COVER_FLOOR percent of statements. The gate value comes
# from the `total:` line of `go tool cover -func` over a core-only
# profile — the one stable, machine-readable statement percentage the
# toolchain offers (the `go test -cover` package line format is not).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1
	@$(GO) test -coverprofile=cover_core.out ./internal/core/ > /dev/null
	@core=$$($(GO) tool cover -func=cover_core.out | \
	  awk '$$1 == "total:" { gsub(/%/, "", $$NF); print $$NF }'); \
	echo "internal/core coverage: $$core% (floor $(CORE_COVER_FLOOR)%)"; \
	awk -v p="$$core" -v f="$(CORE_COVER_FLOOR)" \
	  'BEGIN { exit (p + 0 >= f + 0) ? 0 : 1 }' || \
	  { echo "internal/core coverage below floor"; exit 1; }

# Go lines a change adds and removes against BASE (make loc BASE=<rev>):
# added, removed and net for non-test files and for test files
# (_test.go and testdata/), from git diff --numstat between BASE and
# the working tree. A new file counts once git tracks it (git add).
loc:
	@test -n "$(BASE)" || { echo "usage: make loc BASE=<rev>"; exit 2; }
	@git diff --numstat $(BASE) -- '*.go' | awk ' \
	  { k = ($$3 ~ /(_test\.go|\/testdata\/)/) ? "test" : "non-test"; add[k] += $$1; del[k] += $$2 } \
	  END { split("non-test test", ks, " "); for (i = 1; i <= 2; i++) { k = ks[i]; \
	    printf "%-8s  +%d -%d  net %+d\n", k, add[k], del[k], add[k] - del[k] } }'

ci: build vet lint test race bench-smoke
