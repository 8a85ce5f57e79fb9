#!/bin/sh
# Non-test Go lines per package and in total, bench/ excluded (it is its
# own module, sized separately) and so are testdata/ fixtures (the go tool
# builds none of them): the figure ROADMAP.md and CHANGES.md quote when a
# PR claims the tree got smaller. The total equals
#   find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
# After the total come the ten longest non-test functions over the same
# files, ROADMAP.md's longest-function table: a function runs from its
# `func` line to the first `}` in column one. Last come the command-line
# flags each command under cmd/ defines (calls like flag.String or
# flag.DurationVar) and their sum, ROADMAP.md's flag count.
set -eu
cd "$(dirname "$0")/.."

files=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | sort)

for f in $files; do
	echo "$(dirname "$f" | sed 's|^\./||') $(wc -l <"$f")"
done |
	awk '{ n[$1] += $2; total += $2 }
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'

echo
echo "longest functions:"
awk '/^func .*\{$/ {
		name = substr($0, 6)
		recv = ""
		if (name ~ /^\(/) {
			recv = name
			sub(/\).*/, "", recv)
			sub(/.*[ *]/, "", recv)
			sub(/\[.*/, "", recv)
			recv = recv "."
			sub(/^\([^)]*\) /, "", name)
		}
		sub(/[[(].*/, "", name)
		dir = FILENAME
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\//, "", dir)
		fn = dir " " recv name
		start = FNR
	}
	/^}/ && start { printf "%7d  %s\n", FNR - start + 1, fn; start = 0 }' $files |
	sort -k1,1nr -k2 | head -10

echo
echo "command flags:"
for d in $(ls cmd); do
	echo "$d $(cat $(ls cmd/$d/*.go | grep -v '_test\.go$') |
		grep -oE 'flag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|Text|Uint|Uint64)?(Var)?\(' |
		wc -l)"
done |
	awk '{ printf "%7d  %s\n", $2, $1; total += $2 }
	END { printf "%7d  total\n", total }'
