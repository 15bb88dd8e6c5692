GO ?= go

.PHONY: check build vet perfbench lint fuzz-seed test race stress-persist stress-atomic stress-feed stress-repl stress-blob bench bench-contention bench-smoke bench-obs clean

## check is the CI gate: a fresh checkout must build, vet (go vet ./...),
## pass jcflint with zero unsuppressed findings, replay the decoder fuzz
## seed corpus, and pass the full test suite under the race detector,
## plus an extra multi-count run of the persistence crash-consistency
## stress test, compile, vet and test the perfbench module, and run every
## root benchmark once (bench-smoke). This is
## what keeps the missing-go.mod regression, data races in the sharded
## OMS kernel, torn (oms, framework) snapshot pairs, diverging replicas,
## and unguarded replica writes from ever landing again.
check: build vet perfbench lint fuzz-seed race stress-persist stress-atomic stress-feed stress-repl stress-blob bench-smoke bench-obs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## perfbench compiles, vets and tests the designer-cycle benchmark. It is
## a Go module of its own (replace repro => ../), so the root build never
## compiles it: without this step a public API it calls could be deleted
## and only break when the benchmark runs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## lint runs jcflint — the repo-specific analyzer suite (stripe lock
## ordering, the guardWrite replica gate, dropped errors, feed-publish
## discipline, internal-alias returns, the declared lock hierarchy AND
## blocking-call allowlist in docs/lock-hierarchy.md, Apply-atomicity
## of jcf entry points, ChangeKind switch exhaustiveness, blocking
## calls under named locks, resource release on every path, and
## wrap-safe sentinel-error handling; see docs/analyzers.md) — and
## requires gofmt-clean sources. The module is loaded once and the 11
## analyzers run concurrently; -time prints the per-analyzer wall time.
## Suppressions take //lint:allow <analyzer> <reason>; the reason is
## mandatory, and known-deliberate sites are pinned loud by
## TestDeliberateBlockingStaysLoud.
lint:
	$(GO) run ./cmd/jcflint -time ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$fmt_out"; exit 1; fi

## fuzz-seed replays the fuzz seed corpora deterministically (no fuzzing
## engine): every seed the wire-format and frame-codec fuzzers ever
## minimized must keep decoding without panics or round-trip drift.
fuzz-seed:
	$(GO) test -run FuzzDecodeChanges ./internal/oms/
	$(GO) test -run FuzzReadFrame ./internal/repl/
	$(GO) test -run FuzzDecodeBlobRef ./internal/oms/blobstore/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## stress-persist hammers Framework.Save against concurrent designers
## under the race detector: every saved pair must Load and stay mutually
## consistent (see internal/jcf/stress_test.go).
stress-persist:
	$(GO) test -race -count=3 -run 'TestSaveCrashConsistencyUnderLoad|TestDeriveConfigVersionConcurrent' ./internal/jcf/

## stress-atomic hammers the grouped-operation paths under the race
## detector: batches must stay all-or-nothing against concurrent readers
## and CheckInData must only commit while the reservation is held (see
## internal/oms/batch_test.go and internal/jcf/atomic_test.go).
stress-atomic:
	$(GO) test -race -count=3 -run 'TestBatchAtomicUnderConcurrency|TestCheckInDataVsPublishRace|TestDeriveVariantConcurrent' ./internal/oms/ ./internal/jcf/

## stress-feed hammers the change feed under the race detector: every
## committed op must reach a Watch subscriber exactly once in LSN order
## with batch groups delivered whole (internal/oms/feed_test.go), and
## differential saves looping against concurrent designers must always
## load into a consistent pair (internal/jcf/feed_test.go).
stress-feed:
	$(GO) test -race -count=3 -run 'TestFeedConformanceStress|TestDifferentialSaveCrashConsistencyUnderLoad|TestNotifierPublishesFrameworkEvents' ./internal/oms/ ./internal/jcf/

## stress-repl hammers the replication subsystem under the race
## detector: the primary mutates under concurrent load while one replica
## follows from the start and a second bootstraps mid-stream from a
## snapshot, the transport is killed and reconnected twice, corrupt and
## gapped streams are injected — final replica fingerprints must equal
## the primary's and WaitFor barriers must observe the writes they cover
## (internal/repl/repl_test.go, internal/jcf/replica_test.go). Runs over
## both the in-process pipe and real TCP. The chain-bootstrap tests cover
## the publisher's manifest-chain read: a sound chain is shipped, a
## gapped one falls back to a live snapshot.
stress-repl:
	$(GO) test -race -count=3 -run 'TestReplicationConvergenceUnderLoad|TestReplicaStreamRobustness|TestReplicaReadOnlyView|TestReplicaViewPromote|TestReplicaChainBootstrap|TestReplicaChainBootstrapGapFallsBack' ./internal/repl/ ./internal/jcf/

## stress-blob hammers the content-addressed checkin pipeline under the
## race detector: concurrent identical-content checkins must dedup to
## one physical copy without cross-wiring versions, Publish must gate on
## async blob durability, and both crash windows (blob-without-metadata,
## metadata-without-blob) must load into verifiable state with orphans
## GC-swept (internal/jcf/blob_test.go); replicas must lazily fetch
## missing blobs by digest (internal/repl/blob_test.go).
stress-blob:
	$(GO) test -race -count=3 -run 'TestStressBlob|TestReplicaBlobFetch' ./internal/jcf/ ./internal/repl/

## bench regenerates every paper table/figure benchmark.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

## bench-contention runs only the section 3.1/3.6 concurrency benchmarks
## used for the BENCH_*.json perf trajectory.
bench-contention:
	$(GO) test -bench 'BenchmarkE31LockContention|BenchmarkE36MetadataOps' -run '^$$' .

## bench-smoke runs every root benchmark for one iteration, so a paper
## benchmark that fails at run time (not just at compile time) fails the
## gate. It measures nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

## bench-obs runs the observability overhead probe: the E31-OMS
## contention workload at 16 designers with instrumentation enabled (and
## a live registry) vs stripped at runtime (obs.SetEnabled(false)). In
## `make check` it is a build-and-run smoke step only: one 1s count per
## mode cannot separate a ~3% effect from run-order and heap-growth
## noise, so it bounds nothing about overhead. Overhead claims come from
## medians of `-benchtime 2s -count 5` runs recorded in BENCH_7.json.
bench-obs:
	$(GO) test -bench 'BenchmarkObsOverhead' -run '^$$' -benchtime 1s -count 1 .

clean:
	$(GO) clean ./...
