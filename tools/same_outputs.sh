#!/usr/bin/env bash
# Check that the working tree's src/ writes the same bytes as src/ of REV.
#
# Usage: tools/same_outputs.sh [REV]    (REV defaults to HEAD)
#
# Runs, on both trees and at POPBANDIT_THREADS 1 and 2:
#   - a 5-strategy x 3-seed `compare` on sincos (B=4, T=50);
#   - the same with T=1: the run records the initial population and returns,
#     with no exploit or explore after it;
#   - the same on sincos-switch V=2 (B=8, T=30); with batches of 2 picks it
#     runs hallucinated appends and kept candidate sets, which B=4 (one pick
#     per batch) does not;
#   - `run` of pb2-mix and pb2-mult on a space with 2 continuous and 2
#     categorical parameters (B=12, T=25);
#   - `run` of pb2-mult on sincos-switch V=3 (B=16, T=18), the setting of
#     perfbench's mult-switch-b16 workload; it gives pb2-mult several agents
#     on one arm, so pb2-mult appends to its continuous-only models and
#     extends kept candidate sets, which it does in no other config here;
#   - `run` of pb2-mix from a config that sets every optional field, each
#     away from its default: quantile 0.5 at an even B, all four acquisition
#     keys (n_refine_steps 3 grid levels, against the default 2),
#     objective_args, output (which --out overrides) and strategies;
#   - `gradcheck`, the one command that prints `gp.log_marginal` and
#     `gp.grad_log_marginal` (through their finite-difference errors);
#   - `bandit-sim --C 4 --B 2 --T 200 --V 1 --seeds 0 1 2`, with its CSV;
#   - `bandit-sim --C 64 --B 8 --T 2000 --V 3 --seeds 0 1 2`, with its CSV, the
#     setting of perfbench's bandit-c64 workload: weights are capped in 11%
#     of its rounds, and in round 1 (p = B/C = 0.125 for every arm) a
#     dependent-rounding step settles both arms of its pair, which C=4 does
#     not show;
#   - `bandit-sim --C 200 --B 50 --T 300 --V 2 --seeds 0 1`, with its CSV: at
#     B/C = 1/4 dependent rounding carries one arm through chains of about 200
#     steps, a shape neither smaller job covers.
# Then compares every CSV and every command's stdout with `diff -r`; exits
# non-zero on any difference. For each tree it also prints, without comparing
# them, how many modules `sys.modules` holds after `import popbandit.cli` and
# whether the C=64 `bandit-sim` job, run in-process, loads scipy; and, from a
# second new interpreter, the modules and peak resident memory (`ru_maxrss`)
# after one short in-process `run` of pb2-mult (sincos, B=4, T=5, one seed),
# the footprint of the GP fit path. Writes only into a temporary directory.
set -euo pipefail

rev=${1:-HEAD}
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/rev" "$tmp/configs"
git -C "$repo" archive "$rev" src | tar -x -C "$tmp/rev"

strategies='["random", "pbt", "pb2-rand", "pb2-mult", "pb2-mix"]'
sincos_space='{"continuous": [{"name": "x", "lower": 0.0, "upper": 1.5707963267948966}],
               "categorical": [{"name": "h", "choices": ["sin", "cos"]}]}'
wide_space='{"continuous": [{"name": "x", "lower": 0.0, "upper": 1.5707963267948966},
                            {"name": "z", "lower": -1.0, "upper": 1.0}],
             "categorical": [{"name": "h", "choices": ["sin", "cos"]},
                             {"name": "g", "choices": ["a", "b", "c"]}]}'
cat > "$tmp/configs/compare-sincos.json" <<EOF
{"space": $sincos_space, "objective": "sincos", "strategies": $strategies,
 "seeds": [0, 1, 2], "B": 4, "T_rounds": 50}
EOF
cat > "$tmp/configs/compare-sincos-t1.json" <<EOF
{"space": $sincos_space, "objective": "sincos", "strategies": $strategies,
 "seeds": [0, 1, 2], "B": 4, "T_rounds": 1}
EOF
cat > "$tmp/configs/compare-switch.json" <<EOF
{"space": $sincos_space, "objective": "sincos-switch", "objective_args": {"V": 2},
 "strategies": $strategies, "seeds": [0, 1, 2], "B": 8, "T_rounds": 30}
EOF
for strategy in pb2-mix pb2-mult; do
    cat > "$tmp/configs/run-$strategy.json" <<EOF
{"space": $wide_space, "objective": "sincos", "strategy": "$strategy",
 "seeds": [0, 1], "B": 12, "T_rounds": 25}
EOF
done
cat > "$tmp/configs/run-mult-switch.json" <<EOF
{"space": $sincos_space, "objective": "sincos-switch", "objective_args": {"V": 3},
 "strategy": "pb2-mult", "seeds": [0, 1], "B": 16, "T_rounds": 18}
EOF
cat > "$tmp/footprint-pb2.json" <<EOF
{"space": $sincos_space, "objective": "sincos", "strategy": "pb2-mult",
 "seeds": [0], "B": 4, "T_rounds": 5, "output": "$tmp/footprint-out"}
EOF
cat > "$tmp/configs/run-every-field.json" <<EOF
{"space": $sincos_space, "objective": "sincos-switch", "objective_args": {"V": 2},
 "strategy": "pb2-mix", "strategies": ["random"], "seeds": [0, 1], "B": 6, "T_rounds": 20,
 "quantile": 0.5, "acquisition": {"c1": 0.5, "c2": 0.1, "n_candidates": 300, "n_refine_steps": 3},
 "output": "unused-output"}
EOF

# outputs TREE NAME: every job's files under $tmp/out/NAME/threads<N>/<job>/.
# Both trees write into $tmp/run, so that the paths they print are the same.
outputs() {
    local src=$1/src name=$2 threads config job dir command
    for threads in 1 2; do
        for config in "$tmp"/configs/*.json; do
            job=$(basename "$config" .json)
            dir=$tmp/run/threads$threads/$job
            mkdir -p "$dir"
            command=${job%%-*}
            # From $tmp, so that no popbandit/ in the caller's directory shadows $src.
            (cd "$tmp" && POPBANDIT_THREADS=$threads PYTHONPATH=$src \
                python3 -m popbandit.cli "$command" "$config" --out "$dir" > "$dir/stdout.txt")
        done
        dir=$tmp/run/threads$threads
        mkdir -p "$dir/gradcheck" "$dir/bandit-sim" "$dir/bandit-sim64" "$dir/bandit-sim200"
        (cd "$tmp" && POPBANDIT_THREADS=$threads PYTHONPATH=$src \
            python3 -m popbandit.cli gradcheck > "$dir/gradcheck/stdout.txt")
        (cd "$tmp" && POPBANDIT_THREADS=$threads PYTHONPATH=$src \
            python3 -m popbandit.cli bandit-sim --C 4 --B 2 --T 200 --V 1 --seeds 0 1 2 \
                --out "$dir/bandit-sim/sim.csv" > "$dir/bandit-sim/stdout.txt")
        (cd "$tmp" && POPBANDIT_THREADS=$threads PYTHONPATH=$src \
            python3 -m popbandit.cli bandit-sim --C 64 --B 8 --T 2000 --V 3 --seeds 0 1 2 \
                --out "$dir/bandit-sim64/sim64.csv" > "$dir/bandit-sim64/stdout.txt")
        (cd "$tmp" && POPBANDIT_THREADS=$threads PYTHONPATH=$src \
            python3 -m popbandit.cli bandit-sim --C 200 --B 50 --T 300 --V 2 --seeds 0 1 \
                --out "$dir/bandit-sim200/sim200.csv" > "$dir/bandit-sim200/stdout.txt")
    done
    mkdir -p "$tmp/out"
    mv "$tmp/run" "$tmp/out/$name"
}

# footprint TREE NAME: the import and GP fit footprint lines of one tree.
footprint() {
    (cd "$tmp" && PYTHONPATH=$1/src python3 - "$2" <<'EOF'
import contextlib
import io
import sys

import popbandit.cli

modules = len(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    popbandit.cli.main(["bandit-sim", "--C", "64", "--B", "8", "--T", "2000", "--V", "3",
                        "--seeds", "0", "1", "2"])
scipy = any(name.split(".")[0] == "scipy" for name in sys.modules)
print(f"import footprint of {sys.argv[1]}: {modules} modules after `import popbandit.cli`; "
      f"bandit-sim loads scipy: {'yes' if scipy else 'no'}")
EOF
    )
    (cd "$tmp" && PYTHONPATH=$1/src python3 - "$2" "$tmp/footprint-pb2.json" <<'EOF'
import contextlib
import io
import resource
import sys

import popbandit.cli

with contextlib.redirect_stdout(io.StringIO()):
    assert popbandit.cli.main(["run", sys.argv[2]]) == 0
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"GP fit footprint of {sys.argv[1]}: {len(sys.modules)} modules and ru_maxrss "
      f"{peak_mb:.1f} MB after one short pb2-mult run")
EOF
    )
}

outputs "$tmp/rev" rev
outputs "$repo" work
footprint "$tmp/rev" "$rev"
footprint "$repo" "the working tree"
if diff -r "$tmp/out/rev" "$tmp/out/work"; then
    echo "same outputs: $(find "$tmp/out/work" -type f | wc -l) files identical to $rev"
else
    echo "outputs differ from $rev" >&2
    exit 1
fi
