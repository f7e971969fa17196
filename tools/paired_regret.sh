#!/usr/bin/env bash
# Paired final-regret differences between the working tree's src/ and src/ of REV.
#
# Usage: tools/paired_regret.sh [REV] [FIRST_SEED]
#        (REV defaults to HEAD, FIRST_SEED to 0)
#
# Runs 20 seeds, FIRST_SEED to FIRST_SEED+19 (by default the acceptance
# suite's seeds 0-19), at B=4, T=50, of pb2-rand, pb2-mult and pb2-mix on
# sincos and on sincos-switch V=1 with `popbandit run`, on both trees. For
# each of the 6 settings it prints every seed's final cumulative regret
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
for strategy in pb2-rand pb2-mult pb2-mix; do
    cat > "$tmp/configs/$strategy@sincos.json" <<EOF
{"space": $space, "objective": "sincos", "strategy": "$strategy",
 "seeds": $seeds, "B": 4, "T_rounds": 50}
EOF
    cat > "$tmp/configs/$strategy@sincos-switch.json" <<EOF
{"space": $space, "objective": "sincos-switch", "objective_args": {"V": 1},
 "strategy": "$strategy", "seeds": $seeds, "B": 4, "T_rounds": 50}
EOF
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


print(f"final cumulative regret, working tree minus {rev}, seeds {first}-{first + 19} "
      "(B=4, T=50)")
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
