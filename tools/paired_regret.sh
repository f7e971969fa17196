#!/usr/bin/env bash
# Paired final-regret differences between the working tree's src/ and src/ of REV.
#
# Usage: tools/paired_regret.sh [REV] [FIRST_SEED]
#        (REV defaults to HEAD, FIRST_SEED to 0)
#
# Runs 20 seeds, FIRST_SEED to FIRST_SEED+19 (by default the acceptance
# suite's seeds 0-19), of 9 settings with `popbandit run`, on both trees:
#   - pb2-rand, pb2-mult and pb2-mix on sincos and on sincos-switch V=1
#     (B=4, T=50; one pick per batch);
#   - pb2-mult on sincos-switch V=3 (B=16, T=18), the setting of perfbench's
#     mult-switch-b16 workload, where several picks of a batch share an arm;
#   - pb2-mult and pb2-mix on same_outputs.sh's space with 2 continuous and 2
#     categorical parameters (B=12, T=25), the one setting with d = 2.
# For each setting it prints every seed's final cumulative regret
# difference, working tree minus REV (negative: the working tree's regret is
# lower), and their paired mean +- standard error. Use it to decide a change
# that alters the picks or the GP's fitted hyperparameters; a FIRST_SEED past
# 19 checks it on seeds that the acceptance suite never ran. Writes only into
# a temporary directory.
set -euo pipefail

rev=${1:-HEAD}
first=${2:-0}
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/rev" "$tmp/configs"
git -C "$repo" archive "$rev" src | tar -x -C "$tmp/rev"

seeds="[$(seq -s ', ' "$first" $((first + 19)))]"
space='{"continuous": [{"name": "x", "lower": 0.0, "upper": 1.5707963267948966}],
        "categorical": [{"name": "h", "choices": ["sin", "cos"]}]}'
wide_space='{"continuous": [{"name": "x", "lower": 0.0, "upper": 1.5707963267948966},
                            {"name": "z", "lower": -1.0, "upper": 1.0}],
             "categorical": [{"name": "h", "choices": ["sin", "cos"]},
                             {"name": "g", "choices": ["a", "b", "c"]}]}'

# config SETTING SPACE OBJECTIVE OBJECTIVE_ARGS B T: the config of SETTING,
# named STRATEGY@WHERE.
config() {
    cat > "$tmp/configs/$1.json" <<EOF
{"space": $2, "objective": "$3", "objective_args": $4, "strategy": "${1%%@*}",
 "seeds": $seeds, "B": $5, "T_rounds": $6}
EOF
}
for strategy in pb2-rand pb2-mult pb2-mix; do
    config "$strategy@sincos" "$space" sincos '{}' 4 50
    config "$strategy@sincos-switch" "$space" sincos-switch '{"V": 1}' 4 50
done
config "pb2-mult@switch-b16" "$space" sincos-switch '{"V": 3}' 16 18
for strategy in pb2-mult pb2-mix; do
    config "$strategy@wide-b12" "$wide_space" sincos '{}' 12 25
done

# runs TREE NAME: every setting's run CSVs under $tmp/out/NAME/<setting>/.
runs() {
    local src=$1/src name=$2 config dir
    for config in "$tmp"/configs/*.json; do
        dir=$tmp/out/$name/$(basename "$config" .json)
        mkdir -p "$dir"
        # From $tmp, so that no popbandit/ in the caller's directory shadows $src.
        (cd "$tmp" && PYTHONPATH=$src python3 -m popbandit.cli run "$config" --out "$dir" > /dev/null)
    done
}

runs "$tmp/rev" rev
runs "$repo" work
python3 - "$tmp/out" "$rev" "$first" <<'EOF'
import csv, math, pathlib, statistics, sys

out, rev, first = pathlib.Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
seeds = range(first, first + 20)


def final_regret(path):
    with open(path, newline="") as f:
        return float(list(csv.DictReader(f))[-1]["cum_regret"])


print(f"final cumulative regret, working tree minus {rev}, seeds {first}-{first + 19}")
for setting in sorted(p.name for p in (out / "work").iterdir()):
    strategy = setting.split("@")[0]
    diffs = [final_regret(out / "work" / setting / f"run_{strategy}_seed{s}.csv")
             - final_regret(out / "rev" / setting / f"run_{strategy}_seed{s}.csv")
             for s in seeds]
    mean = statistics.fmean(diffs)
    sem = statistics.stdev(diffs) / math.sqrt(len(diffs))
    print(f"{setting}: {mean:+.3f} +- {sem:.3f} (paired mean +- sem)")
    print("  per seed: " + " ".join(f"{d:+.3f}" for d in diffs))
EOF
