#!/usr/bin/env bash
# Runs every workload as set A and set B of the same code with the same
# seed, alternating which set goes first, and compares the medians of the
# two sets for every end-to-end metric against its bound in
# BENCHMARK.json. Exits non-zero when a metric disagrees beyond its bound,
# a run is incorrect, or an operation failed.
#
#   benchmark/repeat.sh [seed] [runs-per-set]      (defaults: 1 3)
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
runs=${2:-3}
workloads=(serve_cold serve_hot fleet_hot reload_mixed train_paper)

cargo build --release --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/st-benchmark"
out=benchmark/out
rm -f "$out"/repeat-*.json

for ((i = 1; i <= runs; i++)); do
  if ((i % 2)); then order=(A B); else order=(B A); fi
  for w in "${workloads[@]}"; do
    for set in "${order[@]}"; do
      "$bin" --workload "$w" --seed "$seed" >/dev/null || echo "run failed: $w set $set" >&2
      cp "$out/$w.json" "$out/repeat-$set-$i-$w.json"
    done
  done
done

python3 - "$out" "$runs" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
bad = False
print(f"nproc {json.load(open(f'{out}/repeat-A-1-{workloads[0]}.json'))['info']['nproc']}, "
      f"{runs} runs per set, medians, difference as a share of set A")
print(f"{'workload':13s}{'metric':13s}{'set A':>14s}{'set B':>14s}{'diff':>9s}{'bound':>7s}")
for w in workloads:
    sets = {s: [json.load(open(f"{out}/repeat-{s}-{i}-{w}.json")) for i in range(1, runs + 1)] for s in "AB"}
    for s, rs in sets.items():
        for r in rs:
            if not r["correct"] or r["failed"]:
                bad = True
                print(f"{w:13s}set {s}: incorrect run, failed={r['failed']} checks={r['checks']}")
    losses = {r["info"].get("loss_after_warmup_bits") for rs in sets.values() for r in rs}
    if len(losses) > 1:
        bad = True
        print(f"{w:13s}same seed, different losses after warm-up: {sorted(losses)}")
    for m in spec["end_to_end"]:
        a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in sets[s]) for s in "AB")
        diff = (b - a) / a
        verdict = "" if abs(diff) <= m["bound"] else "  DISAGREE"
        bad |= bool(verdict)
        print(f"{w:13s}{m['name']:13s}{a:14.3f}{b:14.3f}{diff:+9.3f}{m['bound']:7.2f}{verdict}")
sys.exit(1 if bad else 0)
PY
