# SPATE build and verification targets.

GO ?= go

.PHONY: all build test race flaky widths vet bench fuzz fmt lint check loc

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
# package, which drives both backends (engine and coordinator scatter), the
# one cache every scan worker and request shares (stripes, singleflight),
# and the highlights package, whose summaries memoize their encoding for
# every goroutine that ships them.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -timeout 60m ./internal/core/ ./internal/cluster/ ./internal/webui/ \
		./internal/cache/ ./internal/highlights/
	$(GO) test -race -run 'Parity|Property|Equivalence|Reference' -cpu 1,2,4 \
		./internal/segment/ ./internal/compress/ ./internal/sqlengine/ ./internal/tasks/
	$(GO) test -race -count=10 -cpu 1,2,4 -run 'LookAhead' ./cmd/spate-server/

# Three assertions used to depend on how the scheduler interleaved
# goroutines (or, the third, on a 150 ms deadline holding under the race
# detector) and failed many runs on a 2-CPU box; repeat them starved and in
# parallel so a timing-dependent assertion cannot come back unnoticed. The
# fourth races explorations against the day seal, decay and the refill that
# write a sealed leaf's kept summary encoding, and the fifth a decay sweep
# applied one eviction per batch against four explorers: which of them wins
# differs from run to run, so they repeat under the race detector too. The
# sixth races result-cache hits under every attr= mode, which fill and read
# one cached answer's memo of rendered cells, against the cache's Clear and
# Invalidate (9–12 s at -count=20 -cpu 1,2 on 2 vCPUs). The seventh races
# explorations that share the coordinator's memoized shard parts against
# appends, seals and a decay run on the shards under them (about 26 s), and
# the eighth explorations served the coordinator's kept answers, checked
# against the digests of parts those writes change (about 31 s).
flaky:
	$(GO) test -count=20 -cpu 1,2 -run 'TestThunderingHerd$$' ./internal/serving/
	$(GO) test -count=20 -cpu 1,2 -run 'TestStreamSealerAdvancesWithDataTime$$' ./internal/core/
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestClusterTracePartialShard$$' ./internal/cluster/
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestKeptSummaryRace$$' ./internal/core/
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestConcurrentDecayExplore$$' ./internal/core/
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestCachedExploreHitsRace$$' ./internal/webui/
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestPartMemoRace$$' ./internal/cluster/
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestAnswerCacheRace$$' ./internal/cluster/

# The un-raced counterpart of race's GOMAXPROCS sweep, cheap enough for
# every CI run: the whole tree starved, at the box's width and
# oversubscribed. It includes the default width of a 1-, 2- or 4-core
# runner, so check runs no separate plain test pass.
widths:
	$(GO) test -cpu 1,2,4 ./...

vet:
	$(GO) vet ./...

# The per-package Benchmark* functions, for profiling a layer. They gate
# nothing: end-to-end speed is benchmarks/run.sh --compare against
# BENCHMARK.json, and the deterministic leaf bytes a scan inflates are
# TestInflatedBytesCeilings in internal/core, part of every test run.
bench:
	$(GO) test -bench . -benchtime 10x -run XXX ./...

# Fuzz the WAL record decoder, the v3 column-stream decoders (string and
# column-batch, one target), the SPSG tail/footer parser behind
# segment.Open (with the chunk reads of what opens), the binary summary
# decoder (with the merge of what it decodes), the explore frame reader
# (which checks part digests and decodes the parts, rows and partials
# inside it), the partials
# section alone (which refuses keys out of order), the scan-spec check a node
# runs on /rpc/explore bodies, the web UI's JSON string and number writers
# (against encoding/json), its SQL rows rendered from column batches
# (against the records AppendRecords makes of them) and its box parameters
# (against fmt's %g), and the SQL engine's ts window derivation (against
# its row evaluator) for a short, CI-friendly budget.
fuzz:
	$(GO) test -fuzz FuzzRecordDecode -fuzztime 30s -run XXX ./internal/wal/
	$(GO) test -fuzz FuzzDecodeColumn -fuzztime 30s -run XXX ./internal/compress/
	$(GO) test -fuzz FuzzSegmentOpen -fuzztime 30s -run XXX ./internal/segment/
	$(GO) test -fuzz FuzzDecodeSummary -fuzztime 30s -run XXX ./internal/highlights/
	$(GO) test -fuzz FuzzExploreFrame -fuzztime 30s -run XXX ./internal/cluster/
	$(GO) test -fuzz FuzzValidateSpec -fuzztime 30s -run XXX ./internal/scanspec/
	$(GO) test -fuzz FuzzReadPartials -fuzztime 30s -run XXX ./internal/scanspec/
	$(GO) test -fuzz FuzzJSONAppend -fuzztime 30s -run XXX ./internal/webui/
	$(GO) test -fuzz FuzzSQLColumns -fuzztime 30s -run XXX ./internal/webui/
	$(GO) test -fuzz FuzzParseBoxQuery -fuzztime 30s -run XXX ./internal/webui/
	$(GO) test -fuzz FuzzTSWindow -fuzztime 30s -run XXX ./internal/sqlengine/

fmt:
	gofmt -l -w .

# Fails on unformatted files, then vets. CI runs this before the build.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# The numbers every ROADMAP item reports a delta of. Per package:
# non-test Go lines, and exported identifiers — package-level names as
# `go doc -short` lists them plus exported methods; the total row sums
# them over the tree. Then two totals: options, the exported field lines
# (one per line, `A, B int` counts once) of every struct type under
# internal/ whose name ends in Options or Config, with core.Options's own
# share; and flags, the calls in non-test Go under cmd/ that define one —
# Bool, Int, Int64, Uint, Uint64, Float64, String, Duration, Func, Var or
# a ...Var form, on the flag package or a FlagSet named flags.
loc:
	@lines=0; exported=0; \
	for d in $$($(GO) list -f '{{.Dir}}' ./... | grep -v '/benchmarks'); do \
		src=$$(ls $$d/*.go | grep -v _test.go); \
		names=$$($(GO) doc -short $$d 2>/dev/null | grep -cE '^ *(func|type|var|const) [A-Z]'); \
		meths=$$(cat $$src | grep -cE '^func \([^)]*\) [A-Z]'); \
		n=$$(cat $$src | wc -l); rel=$${d#$(CURDIR)}; rel=$${rel#/}; \
		printf '%-32s %6d lines %4d exported\n' $${rel:-.} $$n $$((names + meths)); \
		lines=$$((lines + n)); exported=$$((exported + names + meths)); \
	done; \
	printf '%-32s %6d lines %4d exported\n' total $$lines $$exported; \
	fields() { pat=$$1; shift; awk -v pat="^type $$pat struct" \
		'$$0 ~ pat { on = 1; next } on && /^}/ { on = 0 } on && /^\t[A-Z]/' "$$@" | wc -l; }; \
	opts=$$(fields '[A-Za-z]*(Options|Config)' $$(grep -rlE '^type [A-Za-z]*(Options|Config) struct' \
		--include='*.go' internal | grep -v _test.go)); \
	core=$$(fields Options $$(ls internal/core/*.go | grep -v _test.go)); \
	flags=$$(cat $$(find cmd -name '*.go' ! -name '*_test.go') | \
		grep -oE '\<flags?\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func|BoolFunc|TextVar|Var)(Var)?\(' | wc -l); \
	printf '%-32s %6d fields (core.Options %d)\n' options $$opts $$core; \
	printf '%-32s %6d\n' flags $$flags

# Everything the CI gate runs.
check: build vet widths flaky
