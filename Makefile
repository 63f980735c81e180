GO ?= go

.PHONY: all build vet lint test allocs check race stress mutants torture-smoke torture profile bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is vet, a gofmt check (any file gofmt would rewrite fails it), plus
# staticcheck when the binary is available; the container image does not ship
# it and nothing may be installed, so its absence is a skip, not a failure.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go vet ran)"; \
	fi

test:
	$(GO) test ./...

# allocs runs the allocation ceilings of the request path (a chunk is two heap
# objects made once; a get allocates nothing, nor does a set that replaces or
# evicts; the epoll wait loop's wakeup round allocates nothing) and the item
# layout test by name. They are ordinary tier-1 tests, so `make test` runs
# them too; this target is what to run after touching stm, item, assoc,
# engine, protocol or poller.
allocs:
	$(GO) test -count=1 -run 'Allocs|Layout' ./internal/item ./internal/assoc ./internal/engine ./internal/protocol ./internal/poller

# check is the tier-1 gate plus the robustness smoke: everything builds, lints
# clean (go vet's copylocks pass is what keeps items, which embed atomics, from
# being copied by value), passes its tests, holds its allocation ceilings,
# passes the tests again under the race detector, survives shrunken fault
# schedules, repeats the schedule-sensitive suites on one and two Ps, and
# still catches the seeded mutants.
check: build lint test allocs race torture-smoke stress mutants

# race runs every test except the seeded torture schedules (torture-smoke has
# those, shrunken) under the race detector.
race:
	$(GO) test -race -count=1 -skip Torture ./...

# stress repeats the suites whose failures depend on the schedule — the
# torture harness (TestTortureRecycle, the chunk-reuse run on all 14 branches,
# matches the pattern) and the Retry-driven maintenance threads — five times at
# GOMAXPROCS 1 and 2: the it-nolock accounting damage of ROADMAP item 1 only
# ever showed on the second P, and only about one run in ten — the stm
# torn-read test, whose writers and readers race on a multi-stripe buffer, and
# the stm Treiber-stack queue, whose NOrec and Lazy pointer-cell conflict paths
# only show up on the second P, the stm read-only snapshot test, whose
# serial-writer cases guard the serial-lock subscription's load order — and
# the engine's wire-transaction tests, so
# the blocking ordered cross-shard commit and the concurrent-transfer ledger
# run with committers on two Ps. The seeded-bug cases are apart: make mutants.
stress:
	$(GO) test -count=5 -cpu 1,2 -run 'Torture|RetryCondSync' ./internal/engine ./internal/server
	$(GO) test -count=5 -cpu 1,2 -run 'WireTx' ./internal/engine
	$(GO) test -count=5 -cpu 1,2 -run 'TBytesConcurrentWriters|RetryBlockingQueue|ReadOnlySnapshotUnderWriters' ./internal/stm

# mutants runs the seeded bugs the test suites must catch, and fails unless
# every seed or run catches them: the recycle mutant lets an allocation nested
# in an open transaction fill a recycled chunk in place (fused gets take no
# reference, so this chunk-reuse oracle is what guards their path); the
# resample mutant keeps a stripe copy although its orec moved during the copy,
# which the stm torn-read test must see; the join mutant lets a pipelined get
# run take the gets behind a set into its snapshot, which the read-your-writes
# test must see.
mutants:
	$(GO) test -count=1 -run TortureRecycleMutant ./internal/engine -torture.mutant
	$(GO) test -count=1 -run StripeResampleMutant ./internal/stm -stm.mutant
	$(GO) test -count=1 -run GetRunJoinMutant ./internal/protocol -protocol.mutant

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
# figures (EXP=all, or a comma-separated subset: shards, trace-overhead —
# transaction observability never on, on then off, and on —, txn, conns)
# through the one runner in internal/bench and records them in
# BENCH_experiments.json; entries of experiments not run are kept.
EXP ?= all
bench:
	$(GO) run ./cmd/mcbench -exp $(EXP)

# profile runs a short mcbench with transaction observability on and prints
# the serialization causes, conflict heat map, who aborted whom, and latency
# summary.
profile:
	$(GO) run ./cmd/mcbench -profile it-oncommit -ops 2000 -threads 4
