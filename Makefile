# Developer entry points. `make tier1` is the gate every change must
# pass: vet plus the full test suite under the race detector (the plan
# executor shares a program's one plan across parallel partitions, so
# racing the suite is part of the contract, not an optional extra).

GO ?= go

# Core counts every test gate runs under: a cancelled or parallel run
# behaves differently with one, two and more workers, and a suite that
# only ever met one core hid a red tier-1 for six PRs.
PROCS ?= 1 2 4

.PHONY: all build lint tier1 test bench stress incremental-bench fuzz-smoke bench-smoke e2e crash-chaos repo-bench repo-bench-smoke profile-expert profile-ingest profile-request profile-cli profile-infer twins

all: build

build:
	$(GO) build ./...

# Static-analysis gate over both languages the repo is written in: the
# Go tree (gofmt cleanliness + go vet) and the CPL tree (cvlint over
# the shipped specs corpus — the lintcorpus golden fixtures are
# deliberately broken and skipped by the directory walk). staticcheck
# would slot in after vet, but the offline build cannot vendor it;
# cvlint is the project-specific analyzer this gate is really about.
# `unsafe` belongs to the two drivers that borrow their strings from a
# document they own (DESIGN.md §5) and to no other file, tests included.
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	@bad=$$(grep -rlE --include='*.go' --exclude-dir=.bench_build '^(import)?[[:space:]]*"unsafe"' . \
		| grep -vxE '\./internal/driver/(xml|ini)\.go'); if [ -n "$$bad" ]; then \
		echo "unsafe imported outside internal/driver/xml.go and ini.go:"; echo "$$bad"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/cvlint ./specs

# tier1 includes the concurrency stress suite: `go test -race ./...`
# picks up the race-hunting tests in internal/config/race_test.go,
# internal/engine/race_test.go, and swap_test.go along with everything
# else. `make stress` runs just those, with more iterations.
# -count=1 because the test cache does not key on GOMAXPROCS: without it
# the second and third passes would replay the first one's results.
tier1: lint
	for p in $(PROCS); do GOMAXPROCS=$$p $(GO) test -race -count=1 ./... || exit 1; done

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -run '^$$' .

# Focused run of the concurrency stress suite under the race detector.
# -count=3 re-interleaves the schedules; the cold-cache discovery test
# is the regression gate for the buildTrie race, the chaos suite drives
# multi-round watch sessions through injected ingestion faults, the
# serve/runner tests race concurrent tenants over shared sessions, the
# plan-vs-interpreter compartment test races a run's shared compartment
# numbering across four partitions, the eight retention tests wait on
# finalizers, so a collector-timing flake shows up here first, the two
# payload-buffer lifetime tests hold what a pooled, poisoned decode buffer
# leaves behind a taken and a declined delta walk to a cold interpreter run,
# TestConcurrentAddressMemo (the TestConcurrent prefix matches it)
# holds eight goroutines sharing one spec's content-address memo to the
# stateless chunk-tree digest, the two own-payload re-parse tests
# (TestConcurrentSpecsWithOwnPayloadsReparse by prefix) hold two specs'
# lineages apart, taking turns and concurrent, and the counting test
# TestConcurrentTenantCounts (by prefix) holds a tenant's counts, added
# once per run from runner.Result.Counts, to the sum its concurrent runs'
# responses report.
stress:
	for p in $(PROCS); do GOMAXPROCS=$$p $(GO) test -race -count=3 -run 'TestConcurrent|TestParallelRun|TestSwapStore|TestSnapshotIsolation|TestChaos|TestCompartmentPlanMatchesInterpreter|TestTenantRetainsOneSnapshotPerSpec|TestCostsDoesNotRetainSnapshot|TestPooledCtxRetainsAtMostTheCap|TestLoaderRetainsOneBatch|TestLoaderReleasesReparsedBuffers|TestRetiredProgramsAreCollected|TestAddressMemoDiesWithSpec|TestRetiredSpecsPayloadIsCollected|TestSpecsWithOwnPayloadsReparse|TestPayloadBufferReusedAfterTakenWalk|TestPayloadBufferKeptAfterDeclinedWalk' ./internal/config/ ./internal/engine/ ./internal/ingest/ ./internal/plan/ ./internal/runner/ ./internal/serve/ . || exit 1; done

# Full service round trip over real processes and a loopback socket:
# build cvserve+cvcall+cvcheck, boot the server, drive it with cvcall
# register→validate→report, and assert exit codes plus report identity
# with the CLI path. Mirrors the CI "Service e2e" job.
e2e:
	$(GO) test -run 'TestE2E$$' -v ./cmd/cvserve/

# Durability gate: the journal/recovery crash-injection suites (torn
# tails, mid-commit crashes, randomized op streams across four crash
# modes) under the race detector, then a process-level kill -9 /
# restart e2e that holds three successive cvserve lives to byte
# identity on the same -state-dir. Mirrors the CI "Crash chaos" job.
crash-chaos:
	$(GO) test -race -count=1 ./internal/durable/
	$(GO) test -race -count=1 -run 'TestRecover|TestCrashMid|TestReadyz|TestConcurrentRegisterDrain' ./internal/serve/
	$(GO) test -count=1 -run 'TestE2ECrashRecovery|TestE2EInMemory' -v ./cmd/cvserve/

# Regenerate the churn sweep recorded in BENCH_incremental.json.
incremental-bench:
	$(GO) run ./cmd/cvbench -run incremental -full

# Short coverage-guided run of each fuzzer on top of the checked-in
# seeds: the format drivers (FuzzXML differentially, against the
# encoding/xml oracle; FuzzKV differentially, against the strings.Split
# oracle, its projected parse against the filtered full parse and the
# partition built from the scan's class numbers against
# config.NewPartition, and three times as long, because this run is all
# that holds the index-walking scanner to it), the service's request-envelope
# decoder (against encoding/json into the public wire type; three times
# as long for the same reason) and the snapshot diff's lazy Delta (against
# the eager key-listing one in internal/config/oracle_test.go, on two KV
# documents; as long again, with minimisation bounded, since each of its
# executions asks a few thousand questions of both deltas and minimising
# one new input would otherwise take most of the window), and the
# loader's delta re-parse (against a full parse of the edited bytes, XML
# and KV, projected KV too, and the store built from the base's partition
# with the re-valued instances swapped in against AddAll's; thirty
# seconds), the value typer (FuzzVtype: every vtype parser
# against the strconv/net originals in internal/vtype/oracle_test.go;
# thirty seconds), the CPL front end (FuzzCompile: lexer, parser and
# compiler must not panic; thirty seconds), the AST walks (FuzzFootprint:
# the footprint and the lowerer's $_-dependence test against the
# hand-written walks in internal/plan/walk_oracle_test.go, on every
# source that compiles; thirty seconds) and the journal's frame decoder
# (FuzzReadFrames: no error, a good offset that ends whole CRC-valid frames
# and decodes the same alone, records that round-trip through frame;
# thirty seconds) and the service's content address (FuzzContentAddress:
# one chunk-digest memo fed a sequence of edited, grown and truncated
# bodies against the stateless tree digest in
# internal/serve/address_test.go; thirty seconds), the decode against a
# memo's view of the last decode (FuzzDecodeReuse: edited bodies against a
# memo-less decode and the copying memo kept in
# internal/serve/reuse_test.go; thirty seconds), the one-value path
# (FuzzPatchedLoad: bodies addressed and decoded against one memo, their
# plain or patched payloads loaded on one lineage and each decode made the
# memo's view of the anchors the lineage keeps, against a memo-less
# decode, a full parse and the diff of two full parses, in
# internal/serve/patchload_test.go; thirty seconds) and report assembly
# (FuzzAssemble: the parallel merge and the incremental splice against
# the tag-and-sort merge and scan-per-spec splice kept in
# internal/report/assemble_test.go; thirty seconds), the key grammar
# (FuzzAppendKey: config.AppendKey against the Cut-and-Index original in
# internal/config/key_oracle_test.go; thirty seconds) and the CPL parser's
# token stream (FuzzParseStream: the parser pulling tokens from the lexer
# on demand against tokenize-then-parse in
# internal/cpl/parser/stream_test.go, error text or statements; thirty
# seconds). Mirrors the CI "Fuzz smoke" step; a crasher or a divergence
# fails the target.
fuzz-smoke:
	for f in FuzzINI FuzzCSV FuzzYAML FuzzJSON FuzzXML; do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/driver/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzKV$$' -fuzztime 30s ./internal/driver/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateEnvelope$$' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaOverlaps$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/config/
	$(GO) test -run '^$$' -fuzz '^FuzzReparse$$' -fuzztime 30s ./internal/driver/
	$(GO) test -run '^$$' -fuzz '^FuzzVtype$$' -fuzztime 30s ./internal/vtype/
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 30s ./internal/compiler/
	$(GO) test -run '^$$' -fuzz '^FuzzFootprint$$' -fuzztime 30s ./internal/plan/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrames$$' -fuzztime 30s ./internal/durable/
	$(GO) test -run '^$$' -fuzz '^FuzzContentAddress$$' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReuse$$' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzPatchedLoad$$' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime 30s ./internal/report/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendKey$$' -fuzztime 30s ./internal/config/
	$(GO) test -run '^$$' -fuzz '^FuzzParseStream$$' -fuzztime 30s ./internal/cpl/parser/

# One iteration of every benchmark — compile/panic smoke, no timing
# claims. Mirrors the CI "Bench smoke" step.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# profile BENCH,CPU,MEM: run the benchmarks BENCH matches for ten seconds
# with a CPU and an allocation profile in .bench_build/CPU and
# .bench_build/MEM (test binary: .bench_build/confvalley.test), then print
# the top fifteen of each. Every profile-* target below is one or two
# calls. A backslash-newline written inside a define is joined into one
# line, so the continued command spells its line breaks $(newline).
define newline


endef

define profile
	$(GO) test -run '^$$' -bench '$(1)' -benchtime 10s \$(newline)		-o .bench_build/confvalley.test \$(newline)		-cpuprofile .bench_build/$(2) -memprofile .bench_build/$(3) .
	$(GO) tool pprof -top -nodecount 15 .bench_build/confvalley.test .bench_build/$(2)
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space .bench_build/confvalley.test .bench_build/$(3)
endef

# CPU and allocation profile of the evaluator on the expert_eval inputs
# (BenchmarkExpertEval: the engine's share of that workload, nothing
# reused between iterations). No change may touch bench/, so evaluator
# work is profiled here and *measured* with repo-bench. Test binary and
# profiles land in .bench_build/ (git-ignored); inspect further with
# `go tool pprof -list <regexp> .bench_build/confvalley.test .bench_build/cpu.pprof`.
profile-expert:
	mkdir -p .bench_build
	$(call profile,^BenchmarkExpertEval$$,cpu.pprof,mem.pprof)

# The same for ingest (BenchmarkColdIngest: a full Type A corpus as
# nested XML from bytes to a sealed snapshot — the full driver parse,
# store build, seal — the novel_xml stages below the envelope for a
# payload the service cannot re-parse). Same output layout as
# profile-expert, which it overwrites.
profile-ingest:
	mkdir -p .bench_build
	$(call profile,^BenchmarkColdIngest$$,cpu.pprof,mem.pprof)

# The same for the whole cold request (BenchmarkColdRequest: the
# novel_xml operation in-process through Server.ValidateBody — envelope
# decode, load, store build, seal, diff, incremental splice, report),
# twice: one-value, a one-value change — the envelope decode copying the
# unchanged chunks from the spec's address memo, then the delta re-parse —
# into cpu.pprof and mem.pprof, and structural, a document one setting longer
# per request, so every request is parsed in full (the cold_xml path),
# into cpu-structural.pprof and mem-structural.pprof. Same output layout
# otherwise, which it overwrites.
profile-request:
	mkdir -p .bench_build
	$(call profile,^BenchmarkColdRequest$$/^one-value$$,cpu.pprof,mem.pprof)
	$(call profile,^BenchmarkColdRequest$$/^structural$$,cpu-structural.pprof,mem-structural.pprof)

# The same for the command line (BenchmarkCLIRun: the cli_kv_b operation
# in-process — compile, lower, read and parse a Type B KV file, full run,
# text render, with a fresh runner per iteration). Same output layout,
# which it overwrites.
profile-cli:
	mkdir -p .bench_build
	$(call profile,^BenchmarkCLIRun$$,cpu.pprof,mem.pprof)

# The same for the miner (BenchmarkInferTypeA: infer.Infer over a
# full-scale Type A corpus, generated once outside the timer). Same output
# layout, which it overwrites.
profile-infer:
	mkdir -p .bench_build
	$(call profile,^BenchmarkInferTypeA$$,cpu.pprof,mem.pprof)

# The in-process twins of the repository benchmark's workloads, the
# figures a performance change states its claim on (the workloads below
# stay the measurement of record and the gate of "no worse"):
# BenchmarkCLIRun (cli_kv_b's operation), BenchmarkKVParse (its KV scan,
# projected and in full, in three line orders), BenchmarkExpertEval
# (expert_eval's engine share) and BenchmarkColdRequest (novel_xml's
# request, one-value; moving-value, whose change moves on a chunk each
# request; structural: every request parsed in full; and renamed,
# expert_eval's request: two expert bodies renamed apart, in turn), each
# at -cpu 1 and 2 and five counts. It prints the median ns/op and B/op of
# every benchmark at each core count (a name without a -N suffix ran at
# one), the median gc-cpu-% and live-MB every twin reports (the
# collector's share of the CPU time and the heap its last cycle marked
# live, from runtime/metrics), and the median retained-MB of those that
# report it; the raw output is kept in
# .bench_build/twins.txt for benchstat or a second look. A full pass takes
# a few minutes. Compare two commits by running it on each, alternated.
twins:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^(BenchmarkCLIRun|BenchmarkKVParse|BenchmarkExpertEval)$$' \
		-cpu 1,2 -count 5 . > .bench_build/twins.txt || { cat .bench_build/twins.txt; exit 1; }
	$(GO) test -run '^$$' -bench '^BenchmarkColdRequest$$' \
		-cpu 1,2 -count 5 . >> .bench_build/twins.txt || { cat .bench_build/twins.txt; exit 1; }
	awk '$(twins_medians)' .bench_build/twins.txt

# twins_medians is the awk program behind make twins: per benchmark name,
# in the order first seen, the median of its ns/op, of its B/op, of its
# gc-cpu-%, of its live-MB and of its retained-MB ("-" for a metric it
# does not report).
twins_medians = \
	function median(a, name, c,   i, j, x, v) { \
		for (i = 1; i <= c; i++) v[i] = a[name, i] + 0; \
		for (i = 2; i <= c; i++) { x = v[i]; for (j = i - 1; j > 0 && v[j] > x; j--) v[j + 1] = v[j]; v[j + 1] = x } \
		return c % 2 ? v[(c + 1) / 2] : (v[c / 2] + v[c / 2 + 1]) / 2 \
	} \
	/^Benchmark/ { \
		if (!($$1 in n)) order[++names] = $$1; \
		k = ++n[$$1]; \
		for (i = 3; i < NF; i++) { \
			if ($$(i + 1) == "ns/op") ns[$$1, k] = $$i; \
			if ($$(i + 1) == "B/op") by[$$1, k] = $$i; \
			if ($$(i + 1) == "gc-cpu-%") { gc[$$1, k] = $$i; has[$$1, "gc"] = 1 } \
			if ($$(i + 1) == "live-MB") { lv[$$1, k] = $$i; has[$$1, "lv"] = 1 } \
			if ($$(i + 1) == "retained-MB") { rm[$$1, k] = $$i; has[$$1, "rm"] = 1 } \
		} \
	} \
	function col(a, b, m) { return ((b, m) in has) ? sprintf("%12.1f", median(a, b, n[b])) : sprintf("%12s", "-") } \
	END { \
		printf "%-48s %14s %14s %12s %12s %12s %5s\n", "benchmark", "median ns/op", "median B/op", "gc-cpu-%", "live-MB", "retained-MB", "runs"; \
		for (j = 1; j <= names; j++) { \
			b = order[j]; \
			printf "%-48s %14.0f %14.0f %s %s %s %5d\n", b, median(ns, b, n[b]), median(by, b, n[b]), col(gc, b, "gc"), col(lv, b, "lv"), col(rm, b, "rm"), n[b] \
		} \
	}

# The repository benchmark (BENCHMARK.json, bench/README.md): the
# measurement of record for end-to-end time and allocation. repo-bench
# runs all four workloads for the window BENCHMARK.json declares and
# prints one result line each; compare two saved outputs with
# `.bench_build/bench --compare before.txt after.txt`.
repo-bench:
	secs=$$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json); \
	for w in novel_xml expert_eval repeat_hit cli_kv_b; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds $$secs --trace 0 || exit 1; \
	done

# Two-second pass over every workload — ingest-, evaluation- and
# cache-bound service requests and the command line: the benchmark still
# builds, its set-up gates hold, and every operation's response matches
# the reference. Mirrors the CI "Repo bench smoke" step.
repo-bench-smoke:
	for w in novel_xml expert_eval repeat_hit cli_kv_b; do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
		echo "$$out" | tail -n 1 | grep -q '"failed": *0[,}]' || { echo "$$out"; echo "repo-bench-smoke: $$w reported failed operations"; exit 1; }; \
	done
