# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

# The bench targets pipe go test into cmd/benchjson; without pipefail a
# failing test run whose output still contains the bench lines would exit
# 0 and CI would go green on a broken build.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# The E1–E15 experiment suite (bench_test.go) plus the campaign engine
# and observation-lake benchmarks.
ANALYSIS_BENCH = BenchmarkTable1Datasets|BenchmarkFigure1Skewness|BenchmarkTable2ISP|BenchmarkTable3OVHComcast|BenchmarkSection33CrossAnalysis|BenchmarkFigure2ContentTypes|BenchmarkFigure3Popularity|BenchmarkFigure4aSeedingTime|BenchmarkFigure4bParallel|BenchmarkFigure4cSession|BenchmarkSection51Business|BenchmarkTable4Longitudinal|BenchmarkTable5Income|BenchmarkSection6OVH|BenchmarkAppendixAEstimator
CAMPAIGN_BENCH = BenchmarkCampaignSerial|BenchmarkCampaignParallel|BenchmarkCampaignAdversarial
LAKE_BENCH = BenchmarkLakeIngest|BenchmarkLakeScan|BenchmarkLakeScanCompressed
QUERY_BENCH = BenchmarkQueryLake|BenchmarkQueryMemory|BenchmarkQueryPointLookup
SERVE_BENCH = BenchmarkSnapshotRefreshFull|BenchmarkSnapshotRefreshIncremental

BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: test test-faults bench bench-campaign bench-lake bench-query bench-serve bench-smoke bench-check fmt vet lint lint-debt loc

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

# Run the E1–E15 suite with -benchmem and record the perf trajectory as
# BENCH_<date>.json (cmd/benchjson parses the text output).
bench:
	go test -run '^$$' -bench '$(ANALYSIS_BENCH)' -benchmem -timeout 60m . \
		| go run ./cmd/benchjson -o BENCH_$(BENCH_DATE).json

# The campaign engine benchmarks, with their allocation ceiling enforced
# — the same gate CI runs.
bench-campaign:
	go test -run '^$$' -bench '$(CAMPAIGN_BENCH)' -benchtime=2x -benchmem -timeout 60m . \
		| go run ./cmd/benchjson -o BENCH_campaign_$(BENCH_DATE).json -ceilings ci/bench-ceilings.txt -only '^BenchmarkCampaign'

# Lake ingest throughput + scan latency, with their allocation ceilings
# enforced, recorded as BENCH_lake_<date>.json.
bench-lake:
	go test -run '^$$' -bench '$(LAKE_BENCH)' -benchtime=20x -benchmem -timeout 20m . \
		| go run ./cmd/benchjson -o BENCH_lake_$(BENCH_DATE).json -ceilings ci/bench-ceilings.txt -only '^BenchmarkLake'

# The query-engine benchmarks over a 1M-observation store, ceilings
# enforced: the 2% time-window grouped aggregate through the lake
# executor (zone-map pushdown) and the in-memory executor, the
# full-lake grouped aggregate serial vs parallel, and the
# postings-pruned IP point lookup.
bench-query:
	go test -run '^$$' -bench '$(QUERY_BENCH)' -benchtime=20x -benchmem -timeout 20m . \
		| go run ./cmd/benchjson -o BENCH_query_$(BENCH_DATE).json -ceilings ci/bench-ceilings.txt -only '^BenchmarkQuery'

# The serving-tier snapshot refresh benchmarks over a 1M-observation
# lake: a cold full rebuild vs folding one freshly flushed segment into
# a warm snapshot. The incremental bench self-enforces the >=10x
# speedup floor and its alloc ceiling is checked like the others.
bench-serve:
	go test -run '^$$' -bench '$(SERVE_BENCH)' -benchtime=10x -benchmem -timeout 20m . \
		| go run ./cmd/benchjson -o BENCH_serve_$(BENCH_DATE).json -ceilings ci/bench-ceilings.txt -only '^BenchmarkSnapshot'

# One cheap 1x pass of the campaign + lake + query + serve benches with
# every alloc ceiling enforced, for CI.
bench-smoke:
	go test -run '^$$' -bench '$(CAMPAIGN_BENCH)|$(LAKE_BENCH)|$(QUERY_BENCH)|$(SERVE_BENCH)' -benchtime=1x -benchmem -timeout 25m . \
		| go run ./cmd/benchjson -ceilings ci/bench-ceilings.txt

# bench/ is a module of its own built against this one, so go build, go
# vet and go test ./... never reach it: build it and hold it to gofmt,
# go vet, btpub-vet -noallow and its unit tests (no workload runs), so
# an API change here that breaks the harness fails before benchmark time.
bench-check:
	bash bench/run.sh check

# Go code lines (not blank, not comment-only) per package and in total,
# non-test and test apart. A simplicity PR's "net lines removed" is this
# table at the parent commit minus this table at the change.
loc:
	@bash ci/loc.sh

fmt:
	gofmt -l -w .

vet:
	go vet ./...
