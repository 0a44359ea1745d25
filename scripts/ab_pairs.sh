#!/usr/bin/env bash
# Alternating same-host A/B pairs of the end-to-end benchmark (perfbench).
#
#   scripts/ab_pairs.sh <rev-a> <rev-b> <workload> <seed> <seconds> <pairs>
#
# Exports each revision's committed files with `git archive` into its own
# directory and builds perfbench there with its own target directory, the
# way the benchmark is run on a fresh checkout. Then runs <pairs> pairs of
# untraced runs (`--trace 0`), alternating which side runs first: A then B
# in odd pairs, B then A in even ones. It prints every pair, then for each
# end-to-end metric in BENCHMARK.json each side's quartiles and median,
# how many pairs B won (ties count for neither side), whether B meets the
# gain rule (it wins at least nine tenths of the pairs, and its median
# beats A's by more than the distance between A's quartiles), and whether
# B's median is worse than A's by more than the metric's bound. When the
# distance between A's quartiles, relative to A's median, exceeds that
# bound, the runs spread too widely to tell and the bound check reads
# `unresolved`, unless every B run beats every A run.
#
# Exits 1 when any run exits non-zero or reports `correct: false`, and 2 on
# a usage or build error. Claim a gain only from ten pairs or more. To
# measure uncommitted changes, stage them and pass `$(git stash create)` as
# a revision.
#
# Environment: AB_DIR is where the exported revisions, their builds and the
# run logs go (default: target/ab-pairs under the repository root); an
# export already there is reused, so repeated comparisons skip the build.
set -euo pipefail

if [[ $# -ne 6 ]]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 seed=$4 seconds=$5 pairs=$6
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "ab_pairs: <pairs> must be a positive integer, got '$pairs'" >&2
    exit 2
fi
command -v jq >/dev/null || { echo "ab_pairs: jq is required" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
ab_dir=${AB_DIR:-$root/target/ab-pairs}
mkdir -p "$ab_dir"
metrics=$(jq -c '[.end_to_end[] | {name, better, bound}]' "$root/BENCHMARK.json")

# Export and build one revision; prints the path of its perfbench binary.
build() {
    local sha dir
    sha=$(git -C "$root" rev-parse --verify "$1^{commit}") || exit 2
    dir=$ab_dir/$sha
    if [[ ! -f $dir/.exported ]]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$root" archive "$sha" | tar -x -C "$dir"
        touch "$dir/.exported"
    fi
    echo "building $1 ($sha)" >&2
    CARGO_TARGET_DIR=$dir/target cargo build --release --offline --quiet \
        --manifest-path "$dir/perfbench/Cargo.toml" >&2 || exit 2
    echo "$dir/target/release/pulse-perfbench"
}

bin_a=$(build "$rev_a")
bin_b=$(build "$rev_b")
logs=$ab_dir/logs/$(date +%Y%m%dT%H%M%S)-$workload-s$seed
mkdir -p "$logs"
runs=$logs/runs.jsonl
: >"$runs"
failed=0

# One untraced run of side $1 in pair $2; appends its metrics to $runs.
run_side() {
    local side=$1 pair=$2 bin log status
    if [[ $side == a ]]; then bin=$bin_a; else bin=$bin_b; fi
    log=$logs/pair$pair-$side.txt
    status=0
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$log" 2>&1 || status=$?
    local last
    last=$(tail -n 1 "$log")
    if [[ $status -ne 0 ]] || ! jq -e '.correct == true' <<<"$last" >/dev/null 2>&1; then
        echo "pair $pair side $side: run failed (exit $status); see $log" >&2
        failed=1
        return
    fi
    jq -c --arg side "$side" --argjson pair "$pair" \
        '{pair: $pair, side: $side, m: (.metrics | map_values(.value))}' <<<"$last" >>"$runs"
}

echo "A = $rev_a, B = $rev_b; $workload, seed $seed, ${seconds} s runs, $pairs pairs; logs in $logs"
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2 == 1)); then order="a b"; else order="b a"; fi
    for side in $order; do run_side "$side" "$p"; done
    jq -rs --argjson p "$p" --arg first "${order%% *}" --argjson ms "$metrics" '
        (map(select(.pair == $p and .side == "a"))[0].m) as $a
        | (map(select(.pair == $p and .side == "b"))[0].m) as $b
        | if $a == null or $b == null then "pair \($p): incomplete"
          else "pair \($p) (\($first | ascii_upcase) first):"
               + ($ms | map("  \(.name) A=\($a[.name]) B=\($b[.name])") | join("")) end
    ' "$runs"
done

jq -rs --argjson ms "$metrics" '
    def q($p): sort as $s | ($s | length) as $n
        | if $n == 0 then null else
            (($n - 1) * $p) as $h | ($h | floor) as $lo
            | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]) end;
    def fmt: if . == null then "-" else tostring end;
    . as $runs
    | ($runs | map(.pair) | unique) as $ps
    | [ $ps[] as $p
        | { a: ($runs | map(select(.pair == $p and .side == "a"))[0].m),
            b: ($runs | map(select(.pair == $p and .side == "b"))[0].m) }
        | select(.a != null and .b != null) ] as $full
    | "\nmetric  better  side  q1  median  q3  (\($full | length) complete pairs)",
      ( $ms[] as $m
        | ($runs | map(select(.side == "a") | .m[$m.name])) as $av
        | ($runs | map(select(.side == "b") | .m[$m.name])) as $bv
        | (if $m.better == "higher" then 1 else -1 end) as $sign
        | ($full | map(select(($sign * (.b[$m.name] - .a[$m.name])) > 0)) | length) as $wins
        | ($full | map(select(.b[$m.name] == .a[$m.name])) | length) as $ties
        | (($av | q(0.75) // 0) - ($av | q(0.25) // 0)) as $iqr
        | ($av | q(0.5) // 0) as $ma
        | (($bv | q(0.5) // 0) - $ma) as $diff
        | (if $ma == 0 then 0 else -$sign * $diff / $ma end) as $worse
        | (if $ma == 0 then 0 else $iqr / (if $ma < 0 then -$ma else $ma end) end) as $spread
        | (($av | length) > 0 and ($bv | length) > 0
           and (if $sign > 0 then ($bv | min) > ($av | max) else ($bv | max) < ($av | min) end))
          as $b_beats_all
        | "\($m.name)  \($m.better)  A  \($av | q(0.25) | fmt)  \($av | q(0.5) | fmt)  \($av | q(0.75) | fmt)",
          "\($m.name)  \($m.better)  B  \($bv | q(0.25) | fmt)  \($bv | q(0.5) | fmt)  \($bv | q(0.75) | fmt)",
          "\($m.name)  B won \($wins)/\($full | length) pairs (\($ties) ties); median B-A \($diff); gain rule "
            + (if ($full | length) > 0 and $wins * 10 >= 9 * ($full | length)
                  and $sign * $diff > $iqr then "met" else "not met" end)
            + "; B worse by \($worse * 100 | . * 10 | round / 10)% (negative is better; bound \($m.bound * 100 | round)%): "
            + (if $spread > $m.bound and ($b_beats_all | not)
                  then "unresolved (A quartile spread \($spread * 100 | . * 10 | round / 10)% of its median exceeds the bound)"
               elif $worse > $m.bound then "BEYOND BOUND" else "within bound" end) )
' "$runs"

if ((failed)); then
    echo "ab_pairs: at least one run failed" >&2
    exit 1
fi
