#!/bin/sh
# Non-test Go lines per package and in total, bench/ excluded (it is its
# own module, sized separately): the figure ROADMAP.md and CHANGES.md quote
# when a PR claims the tree got smaller. The total equals
#   find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' |
	sort |
	while read -r f; do
		echo "$(dirname "$f" | sed 's|^\./||') $(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
