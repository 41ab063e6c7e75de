#!/usr/bin/env bash
# make loc: Go code lines (not blank, not comment-only) per package
# directory of the root module and in total, non-test and _test.go apart
# — the count a simplicity PR reports, run at the parent commit and at
# the change. Analyzer fixtures under testdata/ are never compiled and
# do not count; bench/ is a module of its own, totalled on its own line.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -path '*/testdata/*' -not -path './bench/out/*' -print0 | xargs -0 awk '
	FNR == 1 { block = 0 }
	{ sub(/^[ \t]+/, "") }
	block { if (/\*\//) block = 0; next }
	/^$/ || /^\/\// { next }
	/^\/\*/ { if (!/\*\//) block = 1; next }
	{ dir = FILENAME; sub(/\/[^\/]*$/, "", dir); print dir, (FILENAME ~ /_test\.go$/ ? "test" : "code") }
' | sort | uniq -c | awk '
	$2 ~ /^\.\/bench(\/|$)/ { bench[$3] += $1; next }
	{ n[$2, $3] = $1; dirs[$2] = 1; total[$3] += $1 }
	END {
		printf "%-42s %8s %8s\n", "package", "non-test", "test"
		for (d in dirs) printf "%-42s %8d %8d\n", d, n[d, "code"], n[d, "test"] | "sort"
		close("sort")
		printf "%-42s %8d %8d\n", "total (root module)", total["code"], total["test"]
		printf "%-42s %8d %8d\n", "bench/ (own module)", bench["code"], bench["test"]
	}'
