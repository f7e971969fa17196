#!/usr/bin/env bash
# Alternating perfbench runs of src/ of REV and of the working tree's src/.
#
# Usage: tools/bench_pairs.sh REV [WORKLOAD] [PAIRS] [SEED]
#        (WORKLOAD defaults to mult-switch-b16, PAIRS to 10, SEED to 0)
#
# Extracts REV's src/ and perfbench/ (`git archive`) into one temporary
# directory and copies the working tree's into another; the two paths have the
# same length, since a longer path alone has been seen to slow a run by 6%.
# Then runs `perfbench/run.py --workload WORKLOAD --seed SEED` PAIRS times on
# each tree, for BENCHMARK.json's run_seconds, alternating which tree runs
# first. Each tree runs its own perfbench/, as the benchmark does.
#
# Prints every pair's gated (end-to-end) metrics, of those that every run
# reports (cli-compare reports no round or regret metrics), then per metric
# each side's median and quartiles, the change of the medians in %, and in how
# many pairs the working tree read better; and whether `final_regret_by_seed`
# is identical in every pair. Exits non-zero if a run fails or reports incorrect
# outputs. Writes only into a temporary directory.
set -euo pipefail

rev=${1:?usage: tools/bench_pairs.sh REV [WORKLOAD] [PAIRS] [SEED]}
workload=${2:-mult-switch-b16}
pairs=${3:-10}
seed=${4:-0}
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/rev" "$tmp/new" "$tmp/out"
git -C "$repo" archive "$rev" src perfbench | tar -x -C "$tmp/rev"
cp -r "$repo/src" "$repo/perfbench" "$tmp/new"
find "$tmp" -name __pycache__ -prune -exec rm -rf {} +
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")

# bench TREE PAIR: one perfbench run of $tmp/TREE, its stdout in $tmp/out/TREE.PAIR.
bench() {
    (cd "$tmp/$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds") > "$tmp/out/$1.$2"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="rev new"; else order="new rev"; fi
    for tree in $order; do
        bench "$tree" "$i"
    done
    echo "pair $i done ($order)" >&2
done

python3 - "$repo/BENCHMARK.json" "$tmp/out" "$pairs" "$rev" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

bench, out, pairs, rev, workload, seed = sys.argv[1:]
pairs = int(pairs)
gated = json.load(open(bench))["end_to_end"]


def read(tree, i):
    """(metrics, final_regret_by_seed) of one run from its stdout."""
    report = result = None
    for line in open(f"{out}/{tree}.{i}"):
        if line.startswith("{"):
            doc = json.loads(line)
            if "report" in doc:
                report = doc["report"]
            else:
                result = doc
    if not result["correct"] or result["failed"]:
        sys.exit(f"run {i} of {tree}: incorrect outputs or failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}, report["final_regret_by_seed"]


runs = {tree: [read(tree, i) for i in range(1, pairs + 1)] for tree in ("rev", "new")}
print(f"{workload} --seed {seed}: {pairs} pairs, {rev} (rev) against the working tree (new)")
# A workload reports only some gated metrics (cli-compare has no round or regret ones).
reported = [g for g in gated if all(g["name"] in m for tree in runs.values() for m, _ in tree)]
missing = [g["name"] for g in gated if g not in reported]
if missing:
    print(f"  not reported by every run: {', '.join(missing)}")
gated = reported
for i in range(pairs):
    cells = [f"{g['name']} {runs['rev'][i][0][g['name']]:.4g}>{runs['new'][i][0][g['name']]:.4g}"
             for g in gated]
    print(f"  pair {i + 1}: " + "  ".join(cells))


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


print(f"  {'metric':<14} {'rev median [q1, q3]':>28} {'new median [q1, q3]':>28} "
      f"{'change':>8}  new better")
for g in gated:
    name, sign = g["name"], 1.0 if g["better"] == "lower" else -1.0
    old = [m[name] for m, _ in runs["rev"]]
    new = [m[name] for m, _ in runs["new"]]
    a2, b2 = statistics.median(old), statistics.median(new)
    change = 100.0 * (b2 - a2) / a2 if a2 else float("nan")
    wins = sum(sign * (o - n) > 0 for o, n in zip(old, new))
    spread = [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in (quartiles(old), quartiles(new))]
    print(f"  {name:<14} {spread[0]:>28} {spread[1]:>28} {change:>+7.1f}%  {wins} of {pairs}")
same = sum(runs["rev"][i][1] == runs["new"][i][1] for i in range(pairs))
print(f"  final_regret_by_seed identical in {same} of {pairs} pairs")
EOF
