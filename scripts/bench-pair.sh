#!/bin/sh
# Paired micro-benchmark gate (BENCHMARKS.md "Comparing"): times the
# package benchmarks of <rev> (the parent) and of the working tree (the
# change) in alternating rounds, and judges each row on the spread of its
# per-round ratios with `wise-bench -compare`.
#
#   ./scripts/bench-pair.sh <rev> [test-binary args...]
#
# Run from the repo root. <rev> is exported with `git archive`, so the
# repository's .git is left alone. Extra arguments go to every test binary
# after the defaults below and override them, e.g.
#
#   ./scripts/bench-pair.sh HEAD~1 -test.bench '^BenchmarkIterate$' -test.benchtime 20x
#
# Sides are paired per top-level benchmark function, not per side pass:
# each round runs every function once on both sides, back to back, so a
# sample and its partner are at most one function's run apart (one package
# pass for the packages in $whole below), and host drift over a whole pass
# cannot move one side's rows as a block. Within a round the side that
# goes first alternates from one function to the next, and each function's
# order flips from round to round (ABAB/BABA). A -test.bench pattern is
# split at its first '/': the part before it picks the functions, the rest
# is passed on to each of them. Exit status is that of `wise-bench
# -compare`: 0 when no row regressed, 1 when one did; a benchmark that
# fails on either side exits 2.
set -eu

# Rounds per side; sample i of both reports comes from round i. On a
# 2-vCPU VM some cells vary by 1.5x from one process to the next. At six
# rounds a self-pair and a no-op pair each read one such row regressed; at
# ten, a chance Q1 above 1.2 needs seven of ten rounds to lean that way.
rounds=10
# The packages that hold benchmarks.
pkgs=". ./internal/core ./internal/features ./internal/kernels ./internal/matrix"
# Packages run whole, one process per side per round: the root's figure
# benchmarks share a corpus labelled once per process (benchContext in
# bench_test.go, about 10 s), which a process per function would repeat.
whole="."

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [test-binary args...]" >&2
    exit 2
fi
rev=$1
shift
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "$0: $rev is not a commit" >&2
    exit 2
}

# Take -test.bench out of the arguments; the rest go to every run.
bench=.
n=$#
while [ "$n" -gt 0 ]; do
    a=$1
    shift
    n=$((n - 1))
    case $a in
    -test.bench | --test.bench)
        [ "$n" -gt 0 ] || {
            echo "$0: $a needs a pattern" >&2
            exit 2
        }
        bench=$1
        shift
        n=$((n - 1))
        ;;
    -test.bench=* | --test.bench=*) bench=${a#*=} ;;
    *) set -- "$@" "$a" ;;
    esac
done
top=${bench%%/*}
sub=
case $bench in */*) sub=/${bench#*/} ;; esac

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/bin-parent" "$work/bin-change"
git archive "$rev" | tar -x -C "$work/parent"
change=$(pwd)
go build -o "$work/wise-bench" ./cmd/wise-bench

# bin <side> <pkg>: the test binary of one package on one side.
bin() {
    echo "$work/bin-$1/$(echo "$2" | tr ./ __).test"
}

# build <side> <tree>: compile one test binary per package of the tree.
build() {
    for p in $pkgs; do
        (cd "$2" && go test -c -o "$(bin "$1" "$p")" "$p")
    done
}
build parent "$work/parent"
build change "$change"

# The units to time, as "<pkg> <pattern>" lines: one per function of
# either side whose name matches the first element of the pattern, so a
# function on one side only still runs there, or one per whole package.
for p in $pkgs; do
    names=$(for side in parent change; do
        "$(bin "$side" "$p")" -test.list "$top" | grep '^Benchmark' || true
    done | sort -u)
    [ -n "$names" ] || continue
    case " $whole " in
    *" $p "*) echo "$p $top" ;;
    *) for n in $names; do echo "$p ^$n\$"; done ;;
    esac
done >"$work/funcs"
[ -s "$work/funcs" ] || {
    echo "$0: no benchmark matches $top" >&2
    exit 2
}

# run <side> <pkg> <pattern> [args]: one pass of one unit, the binary run
# in its package directory as `go test` would run it.
run() {
    side=$1 p=$2 pat=$3
    shift 3
    if [ "$side" = parent ]; then tree=$work/parent; else tree=$change; fi
    (cd "$tree/$p" && "$(bin "$side" "$p")" -test.run '^$' -test.benchtime 100ms -test.count 1 "$@" \
        -test.bench "$pat$sub" </dev/null) >>"$work/$side.txt" || {
        echo "$0: $p $pat failed on the $side side:" >&2
        tail -n 20 "$work/$side.txt" >&2
        exit 2
    }
}

i=0
while [ "$i" -lt "$rounds" ]; do
    echo "bench-pair: round $((i + 1)) of $rounds" >&2
    j=$i
    while read -r p pat; do
        if [ $((j % 2)) -eq 0 ]; then
            run parent "$p" "$pat" "$@"
            run change "$p" "$pat" "$@"
        else
            run change "$p" "$pat" "$@"
            run parent "$p" "$pat" "$@"
        fi
        j=$((j + 1))
    done <"$work/funcs"
    i=$((i + 1))
done

"$work/wise-bench" -o "$work/parent.json" <"$work/parent.txt" >/dev/null
"$work/wise-bench" -o "$work/change.json" <"$work/change.txt" >/dev/null
"$work/wise-bench" -compare "$work/parent.json" "$work/change.json"
