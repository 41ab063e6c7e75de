# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

# The E1–E15 experiment suite (bench_test.go).
ANALYSIS_BENCH = BenchmarkTable1Datasets|BenchmarkFigure1Skewness|BenchmarkTable2ISP|BenchmarkTable3OVHComcast|BenchmarkSection33CrossAnalysis|BenchmarkFigure2ContentTypes|BenchmarkFigure3Popularity|BenchmarkFigure4aSeedingTime|BenchmarkFigure4bParallel|BenchmarkFigure4cSession|BenchmarkSection51Business|BenchmarkTable4Longitudinal|BenchmarkTable5Income|BenchmarkSection6OVH|BenchmarkAppendixAEstimator

.PHONY: test test-faults bench bench-smoke bench-check fmt vet lint lint-debt loc

test:
	go build ./... && go test ./...

# The full static gate, same as the CI lint job: formatting, the
# standard vet suite, then the repo's own analyzers (internal/lint via
# cmd/btpub-vet) with the checked-in allowlist applied. btpub-vet exits
# non-zero on any unsuppressed finding AND on any stale allowlist entry,
# so grandfathered debt cannot outlive the code it excused.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/btpub-vet ./...

# The nightly debt report: every finding, allowlist ignored. Always
# exits 0 — it measures the debt, the allowlist gate above polices it.
lint-debt:
	go run ./cmd/btpub-vet -noallow ./... || true

# Exhaustive kill-point torture: replay the lake workload with a crash
# (clean and torn-write) injected at EVERY filesystem operation, plus the
# EIO/ENOSPC injection sweep, under the race detector. The plain test run
# samples kill points; this enumerates them (BTPUB_FAULT_KILLPOINTS=all),
# same as nightly CI.
test-faults:
	BTPUB_FAULT_KILLPOINTS=all go test -race -run 'TestKillPointTorture|TestInjectedIOErrors' -v ./internal/lake

# The E1–E15 suite with -benchmem, plain go test output. The pipeline's
# end-to-end and per-layer numbers are bench/ (bash bench/run.sh).
bench:
	go test -run '^$$' -bench '$(ANALYSIS_BENCH)' -benchmem -timeout 60m .

# One cheap 1x pass of the campaign, lake, query and snapshot-refresh
# benchmarks, for CI. Each fails itself past its allocs/op ceiling
# (meterAllocs, allocs_test.go), so go test's exit code is the gate.
bench-smoke:
	go test -run '^$$' -bench '^Benchmark(Campaign|Lake|Query|Snapshot)' -benchtime=1x -benchmem -timeout 25m .

# bench/ is a module of its own built against this one, so go build, go
# vet and go test ./... never reach it: build it and hold it to gofmt,
# go vet, btpub-vet -noallow and its unit tests (no workload runs), so
# an API change here that breaks the harness fails before benchmark time.
bench-check:
	bash bench/run.sh check

# Go code lines (not blank, not comment-only) per package and in total
# for the root module, non-test and test apart, testdata fixtures
# excluded, and the bench/ module on its own line. A simplicity PR's
# "net lines removed" is this table at the parent commit minus this
# table at the change.
loc:
	@bash ci/loc.sh

fmt:
	gofmt -l -w .

vet:
	go vet ./...
