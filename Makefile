# Local mirror of .github/workflows/ci.yml: `make ci` runs exactly what
# the pipeline runs.

GO ?= go

.PHONY: build test race bench bench-smoke bench-cache bench-trace bench-grid bench-stackdist bench-store bench-parallel bench-serve bench-ingest fuzz-smoke examples lint doccheck report ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/cli/... ./internal/experiments/... ./internal/tracestore/... ./internal/store/... ./internal/exp/... ./internal/trace/... ./internal/cache/... ./internal/serve/...

# Full benchmark sweep (minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The CI smoke run: one iteration of the runner benchmark.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkRunner -benchtime 1x .

# Cache/hierarchy engine benchmarks.  Results land in
# BENCH_cache.current.json (gitignored); the committed BENCH_cache.json
# is the curated pre/post-refactor baseline record and is never
# overwritten.  CI runs the same recipe and uploads its copy as an
# artifact so the perf trajectory is tracked per PR.  The intermediate
# file (rather than a pipe) keeps go test failures fatal.
bench-cache:
	$(GO) test -run '^$$' -bench 'BenchmarkCacheAccess|BenchmarkCacheAccessStream|BenchmarkHierarchy' -benchtime 1s . > bench_cache.txt
	$(GO) run ./cmd/benchjson -suite cache < bench_cache.txt > BENCH_cache.current.json
	@cat BENCH_cache.current.json

# Trace-pipeline benchmarks: chunked generation, memoized store replay,
# codec round-trip, CPU intake and the end-to-end `repro all` wall
# clock.  Same archival scheme as bench-cache: BENCH_trace.current.json
# is gitignored, the committed BENCH_trace.json is the curated
# before/after record.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkGeneratorChunk|BenchmarkMemOnlyChunk|BenchmarkTraceStoreReplay|BenchmarkTraceCodecChunk|BenchmarkCPUSim' -benchmem -benchtime 1s . > bench_trace.txt
	$(GO) test -run '^$$' -bench 'BenchmarkReproAll$$' -benchtime 1x . >> bench_trace.txt
	$(GO) run ./cmd/benchjson -suite trace < bench_trace.txt > BENCH_trace.current.json
	@cat BENCH_trace.current.json

# Grid engine benchmark: the single-pass multi-configuration engine
# against the sequential per-config and fan-out shapes it replaces, on
# the sweep's 24-point design space.  Same archival scheme as
# bench-cache: BENCH_grid.current.json is gitignored, the committed
# BENCH_grid.json is the curated before/after record.
bench-grid:
	$(GO) test -run '^$$' -bench 'BenchmarkGridVsSequential' -benchmem -benchtime 1s . > bench_grid.txt
	$(GO) run ./cmd/benchjson -suite grid < bench_grid.txt > BENCH_grid.current.json
	@cat BENCH_grid.current.json

# Stack-distance engine benchmark: the single-pass all-sizes engine
# against the explicit grid points it replaces, on the 48-point
# conventional size sweep.  Same archival scheme as bench-cache:
# BENCH_stackdist.current.json is gitignored, the committed
# BENCH_stackdist.json is the curated before/after record.
bench-stackdist:
	$(GO) test -run '^$$' -bench 'BenchmarkStackDistVsGrid' -benchmem -benchtime 1s . > bench_stackdist.txt
	$(GO) run ./cmd/benchjson -suite stackdist < bench_stackdist.txt > BENCH_stackdist.current.json
	@cat BENCH_stackdist.current.json

# Artifact-store benchmark: the warm (fully cached) `repro all` against
# the cold (empty store) run it short-circuits.  Same archival scheme as
# bench-cache: BENCH_store.current.json is gitignored, the committed
# BENCH_store.json is the curated before/after record (acceptance bar:
# warm >= 5x faster than cold).
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkReproAllStore' -benchtime 1x . > bench_store.txt
	$(GO) run ./cmd/benchjson -suite store < bench_store.txt > BENCH_store.current.json
	@cat BENCH_store.current.json

# Intra-trace parallelism benchmark: the chunk-broadcast pipeline with
# point-sharded grids against the sequential single-goroutine pass, on
# the sweep's 24-point design space, plus the end-to-end curves driver
# at 1 vs 8 shards.  Same archival scheme as bench-cache:
# BENCH_parallel.current.json is gitignored, the committed
# BENCH_parallel.json is the curated before/after record (read its
# notes: speedup needs spare cores; a 1-core host measures overhead).
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkGridParallel|BenchmarkCurvesParallel' -benchmem -benchtime 1s . > bench_parallel.txt
	$(GO) run ./cmd/benchjson -suite parallel < bench_parallel.txt > BENCH_parallel.current.json
	@cat BENCH_parallel.current.json

# Simulation-service benchmark: end-to-end `repro serve` request rate
# through the shared load harness, cold (no cache: every request
# simulates through the job queue) vs warm (every request served
# synchronously by the result-cache fast path).  Same archival scheme as
# bench-cache: BENCH_serve.current.json is gitignored, the committed
# BENCH_serve.json is the curated before/after record (acceptance bar:
# warm >= 50x cold req/s).
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeThroughput' -benchtime 1x . > bench_serve.txt
	$(GO) run ./cmd/benchjson -suite serve < bench_serve.txt > BENCH_serve.current.json
	@cat BENCH_serve.current.json

# External-trace ingestion benchmark: cold decode (sniff + gunzip + din
# parse + pack) of a 200k-record gzipped din file, then the replay
# experiment on the ingested trace at 1/2/8 time shards.  Same archival
# scheme as bench-cache: BENCH_ingest.current.json is gitignored, the
# committed BENCH_ingest.json is the curated before/after record (read
# its notes: the sharded speedup needs spare cores; a 1-core host
# measures the sharding overhead floor).
bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkIngest' -benchmem -benchtime 1s . > bench_ingest.txt
	$(GO) run ./cmd/benchjson -suite ingest < bench_ingest.txt > BENCH_ingest.current.json
	@cat BENCH_ingest.current.json

# Short native-fuzz smoke over the trace codec, the simulation engines
# and the packed-trace decoder (one target per invocation, as
# `go test -fuzz` requires).
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReaderCorrupt -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzGridAccess -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzShardedGrid -fuzztime 10s
	$(GO) test ./internal/cache/stackdist -run '^$$' -fuzz FuzzEngineVsNaive -fuzztime 10s
	$(GO) test ./internal/cache/stackdist -run '^$$' -fuzz FuzzFALRUVsEngine -fuzztime 10s
	$(GO) test ./internal/tracestore -run '^$$' -fuzz FuzzDecodePacked -fuzztime 10s

# Run every example program; a non-zero exit fails the target.
examples:
	@for e in examples/*/; do \
		echo "== $$e"; $(GO) run ./$$e || exit 1; \
	done

# Documentation gate: every exported symbol in the library packages
# carries a doc comment, and README <-> docs cross-links resolve.
doccheck:
	$(GO) run ./cmd/doccheck ./internal/... ./cmd/...
	$(GO) run ./cmd/doccheck -links README.md docs/ARCHITECTURE.md

lint: doccheck
	$(GO) vet ./...
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "gofmt needed on:" >&2; echo "$$diff" >&2; exit 1; \
	fi

# Machine-readable registry spec and report envelope, mirroring the CI
# artifact step: repro-list.current.json (the real binary's output) is
# schema-checked byte-for-byte by TestListJSONSchema via REPRO_LIST_JSON,
# repro-report.current.json is the reduced-scale `repro all -json`
# envelope CI uploads for diffing across PRs.  Both are gitignored.
report:
	$(GO) run ./cmd/repro list -json > repro-list.current.json
	REPRO_LIST_JSON=$(CURDIR)/repro-list.current.json $(GO) test ./internal/cli -run TestListJSONSchema
	$(GO) run ./cmd/repro all -instructions 20000 -maxstride 512 -json > repro-report.current.json
	@wc -c repro-list.current.json repro-report.current.json

ci: build lint test examples race bench-smoke report
