# SPATE build and verification targets.

GO ?= go

.PHONY: all build test race flaky widths vet bench bench-json bench-check fuzz fmt lint check loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The obs registry and tracer are lock-free/locked hot paths shared across
# goroutines; run the whole tree under the race detector. Every scan goes
# through the one scheduler, so no -run pattern selects "the parallel tests"
# any more: the whole core and cluster packages re-run at several GOMAXPROCS
# values, exercising the scheduler both starved and saturated, and so do the
# decode, pushdown and layout parity/property tests of the packages under it
# (the highlight fold's batch ≡ row property among them).
# (Three raced widths of a whole package outlast go test's 10-minute default.)
# The boot loader's look-ahead — Prepare of one snapshot beside Commit of the
# one before — is the one place batch ingest runs two goroutines over an
# engine; its tests repeat at each width. So does the one HTTP server's
# package, which drives both backends (engine and coordinator scatter), and
# the one cache every scan worker and request shares (stripes, singleflight).
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -timeout 60m ./internal/core/ ./internal/cluster/ ./internal/webui/ \
		./internal/cache/
	$(GO) test -race -run 'Parity|Property|Equivalence|Reference' -cpu 1,2,4 \
		./internal/segment/ ./internal/compress/ ./internal/sqlengine/ ./internal/tasks/ \
		./internal/highlights/
	$(GO) test -race -count=10 -cpu 1,2,4 -run 'LookAhead' ./cmd/spate-server/

# Three assertions used to depend on how the scheduler interleaved
# goroutines (or, the third, on a 150 ms deadline holding under the race
# detector) and failed many runs on a 2-CPU box; repeat them starved and in
# parallel so a timing-dependent assertion cannot come back unnoticed.
flaky:
	$(GO) test -count=20 -cpu 1,2 -run 'TestThunderingHerd$$' ./internal/serving/
	$(GO) test -count=20 -cpu 1,2 -run 'TestStreamSealerAdvancesWithDataTime$$' ./internal/core/
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestClusterTracePartialShard$$' ./internal/cluster/

# The un-raced counterpart of race's GOMAXPROCS sweep, cheap enough for
# every CI run: the scan pipeline's package starved, at the box's width and
# oversubscribed.
widths:
	$(GO) test -cpu 1,2,4 ./internal/core/

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchtime 10x -run XXX ./...

# Machine-readable report for the exploration benchmarks: ns/op, leaf bytes
# inflated per op and the chunk-cache hit rate land in BENCH_segment.json.
bench-json:
	$(GO) test -bench Explore -benchtime 5x -run XXX ./internal/core/ ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -o BENCH_segment.json
	$(GO) test -bench Lifecycle -benchtime 5x -run XXX ./internal/lifecycle/ \
		| $(GO) run ./cmd/benchjson -o BENCH_lifecycle.json
	$(GO) test -bench 'BenchmarkExplore$$/' -benchtime 2000x -run XXX ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o BENCH_obs.json
	$(GO) test -bench Stream -benchtime 20x -run XXX ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o BENCH_ingest.json
	$(GO) test -bench ColumnarScan -benchtime 5x -run XXX ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o BENCH_scan.json
	$(GO) test -bench ParallelScan -benchtime 3x -run XXX ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o BENCH_parallel.json
	$(GO) test -bench Serving -benchtime 5x -run XXX ./internal/bench/ \
		| $(GO) run ./cmd/benchjson -o BENCH_serving.json

# Regression gate: regenerate the reports, then compare the deterministic
# inflatedB/op numbers against the committed baselines — a format or
# pushdown regression shows up as more leaf bytes inflated per operation,
# independent of runner speed.
bench-check:
	cp BENCH_segment.json BENCH_segment.base.json
	cp BENCH_scan.json BENCH_scan.base.json
	cp BENCH_parallel.json BENCH_parallel.base.json
	cp BENCH_serving.json BENCH_serving.base.json
	$(MAKE) bench-json
	$(GO) run ./cmd/benchjson -baseline BENCH_segment.base.json -candidate BENCH_segment.json
	$(GO) run ./cmd/benchjson -baseline BENCH_scan.base.json -candidate BENCH_scan.json
	$(GO) run ./cmd/benchjson -baseline BENCH_parallel.base.json -candidate BENCH_parallel.json
	$(GO) run ./cmd/benchjson -baseline BENCH_serving.base.json -candidate BENCH_serving.json \
		-metric evals/window -tolerance 2.0
	rm -f BENCH_segment.base.json BENCH_scan.base.json BENCH_parallel.base.json BENCH_serving.base.json

# Fuzz the WAL record decoder, the v3 column-stream decoders (string and
# column-batch, one target), the binary summary decoder and the explore
# frame reader for a short, CI-friendly budget.
fuzz:
	$(GO) test -fuzz FuzzRecordDecode -fuzztime 30s -run XXX ./internal/wal/
	$(GO) test -fuzz FuzzDecodeColumn -fuzztime 30s -run XXX ./internal/compress/
	$(GO) test -fuzz FuzzDecodeSummary -fuzztime 30s -run XXX ./internal/highlights/
	$(GO) test -fuzz FuzzExploreFrame -fuzztime 30s -run XXX ./internal/cluster/

fmt:
	gofmt -l -w .

# Fails on unformatted files, then vets. CI runs this before the build.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# The two numbers every ROADMAP item reports a delta of, per package:
# non-test Go lines, and exported identifiers — package-level names as
# `go doc -short` lists them plus exported methods.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./... | grep -v '/benchmarks'); do \
		src=$$(ls $$d/*.go | grep -v _test.go); \
		names=$$($(GO) doc -short $$d 2>/dev/null | grep -cE '^ *(func|type|var|const) [A-Z]'); \
		meths=$$(cat $$src | grep -cE '^func \([^)]*\) [A-Z]'); \
		printf '%-32s %6d lines %4d exported\n' $${d#$(CURDIR)/} $$(cat $$src | wc -l) $$((names + meths)); \
	done

# Everything the CI gate runs.
check: build vet test widths flaky
