GO ?= go

.PHONY: all build vet lint test allocs check race stress torture-smoke torture profile bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is vet plus staticcheck when the binary is available; the container
# image does not ship it and nothing may be installed, so its absence is a
# skip, not a failure.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go vet ran)"; \
	fi

test:
	$(GO) test ./...

# allocs runs the allocation ceilings of the request path (a chunk is two heap
# objects made once; a get allocates nothing, nor does a set that replaces or
# evicts) and the item layout test by name. They are
# ordinary tier-1 tests, so `make test` runs them too; this target is what to
# run after touching stm, item, assoc, engine or protocol.
allocs:
	$(GO) test -count=1 -run 'Allocs|Layout' ./internal/item ./internal/assoc ./internal/engine ./internal/protocol

# check is the tier-1 gate plus the robustness smoke: everything builds, lints
# clean (go vet's copylocks pass is what keeps items, which embed atomics, from
# being copied by value), passes its tests, holds its allocation ceilings,
# passes the tests again under the race detector, survives shrunken fault
# schedules, and repeats the schedule-sensitive suites on one and two Ps.
check: build lint test allocs race torture-smoke stress

# race runs every test except the seeded torture schedules (torture-smoke has
# those, shrunken) under the race detector.
race:
	$(GO) test -race -count=1 -skip Torture ./...

# stress repeats the suites whose failures depend on the schedule — the
# torture harness (TestTortureRecycle, the chunk-reuse run on all 14 branches,
# matches the pattern) and the Retry-driven maintenance threads — five times at
# GOMAXPROCS 1 and 2: the it-nolock accounting damage of ROADMAP item 1 only
# ever showed on the second P, and only about one run in ten. The seeded-bug
# case is apart: go test -run TortureRecycleMutant ./internal/engine -torture.mutant
stress:
	$(GO) test -count=5 -cpu 1,2 -run 'Torture|RetryCondSync' ./internal/engine ./internal/server

# torture-smoke runs the seeded fault-injection harness in its shrunken
# (-torture.short) form. The flag is registered per test package, so only the
# packages that define it may be targeted here.
torture-smoke:
	$(GO) test -race -run Torture -count=1 ./internal/engine ./internal/server -torture.short

# torture runs the full schedules: 3 seeds per branch family in-process plus
# the end-to-end network runs. Slower; the nightly-CI shape.
torture:
	$(GO) test -race -run Torture -count=1 ./internal/engine ./internal/server

# bench runs the experiments behind every claim made beyond the paper's
# figures (EXP=all, or a comma-separated subset: shards, trace-overhead,
# fingerprint-overhead, txn, conns) through the one runner in internal/bench
# and records them in BENCH_experiments.json; entries of experiments not run
# are kept.
EXP ?= all
bench:
	$(GO) run ./cmd/mcbench -exp $(EXP)

# profile runs a short mcbench with transaction observability on and prints
# the serialization causes, conflict heat map, and latency summary.
profile:
	$(GO) run ./cmd/mcbench -profile it-oncommit -ops 2000 -threads 4
