GO ?= go

# Pipelines (benchmeasure's `go test | tee`) must fail when the test
# binary fails, not report tee's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build test race vet faultmatrix mvccstress bench-short bench-json benchmeasure benchsmoke benchbaseline serversmoke explain ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector run: the engine's concurrent read path and the parallel
# detector are only correct if this stays clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The crash-recovery matrix: every WAL/snapshot/recovery unit test,
# the crash-at-every-I/O-point and error-kind fault matrices, and the
# detect-level crash+resume differential. -count=1 forces the faults
# to actually fire (no cached results).
faultmatrix:
	$(GO) test -count=1 -run 'TestWAL|TestFaultMatrix|TestResume|TestDetectThreeWayDifferential|TestDurableDSN|TestDSNOption' ./internal/sqldb/ ./internal/detect/ ./internal/sqldriver/

# MVCC stress: snapshot stability under racing DML/DDL, epoch GC
# accounting, and the concurrency suite — all under the race detector,
# -count=1 so the interleavings actually rerun.
mvccstress:
	$(GO) test -race -count=1 -run 'TestSnapshotStability|TestSnapshotStable|TestEpochGC|TestConcurrent' ./internal/sqldb/

# Quick perf signal: the two acceptance benchmarks plus the planner
# ablation, a few iterations each.
bench-short:
	$(GO) test -run XXX -bench 'BenchmarkBatchDetect10k|BenchmarkFig5a|BenchmarkPlanner' -benchtime 3x .

# Machine-readable figure series for BENCH_*.json trajectory files.
bench-json:
	$(GO) run ./cmd/ecfdbench -scale 0.1 -json

# The benchtime the baseline guard uses. Each tracked benchmark runs in
# its own `go test` process: sharing a binary lets one benchmark's heap
# inflate the next one's GC pacing by ~20%, which would poison the
# committed numbers.
BENCH_TIME = 15x

# benchmeasure appends standalone runs of the tracked acceptance
# benchmarks to bench_current.txt.
benchmeasure:
	$(GO) test -run '^$$' -bench 'BenchmarkBatchDetect10k$$' -benchtime $(BENCH_TIME) . | tee bench_current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFig5a$$' -benchtime $(BENCH_TIME) . | tee -a bench_current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkConcurrentDetect$$' -benchtime $(BENCH_TIME) . | tee -a bench_current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkMixedRead$$' -benchtime $(BENCH_TIME) . | tee -a bench_current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerCheck$$' -benchtime $(BENCH_TIME) . | tee -a bench_current.txt

# Bench smoke: run every benchmark exactly once (no measurement) so
# bench-only code paths cannot silently rot, then measure the tracked
# acceptance benchmarks, record them to bench_current.json, and fail on
# a >25% regression against the committed BENCH_pr10.json. CI runs this.
benchsmoke: benchmeasure
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	$(GO) run ./cmd/benchguard -write bench_current.json < bench_current.txt
	$(GO) run ./cmd/benchguard -check BENCH_pr10.json < bench_current.txt

# Refresh the committed perf baseline after an intentional change.
benchbaseline: benchmeasure
	$(GO) run ./cmd/benchguard -write BENCH_pr10.json < bench_current.txt

# Server smoke: boot ecfdserver, drive a short closed-loop check load
# at 8 clients against a 10k-row session, and fail unless it sustains
# the ROADMAP's >=500 QPS floor. CI uploads the latency JSON.
serversmoke: build
	./scripts/serversmoke.sh

# Query plans of the detector's fixed statement set.
explain:
	$(GO) run ./cmd/ecfdbench -explain

ci: vet build test race
