#!/usr/bin/env bash
# Reproduces results/BENCH_sweep_eval.json: the cost of evaluating one
# sweep point (OPT-Drowsy, OPT-Sleep and OPT-Hybrid savings of one
# profile side at 70nm) by the per-class oracle and in closed form.
#
# The `sweep_eval` group of crates/bench/benches/component_microbench.rs
# times the two paths back to back on every small-scale suite profile,
# so each (profile, side) gives one interleaved oracle/closed-form pair
# per run. The script runs the group three times and
# records the median per-point time of each path and the median of the
# per-pair oracle/closed-form ratios — the drift-robust speed-up.
#
# Usage: scripts/bench_sweep_eval.sh [out.json]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results/BENCH_sweep_eval.json}"
RUNS=3
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for run in $(seq 1 "$RUNS"); do
  cargo bench -q -p leakage-bench --bench component_microbench -- sweep_eval \
    > "$WORK/run$run.txt"
done

python3 - "$OUT" "$RUNS" "$(nproc)" "$(git describe --always --dirty)" "$WORK" <<'EOF'
import json, re, statistics, sys

out, runs, nproc, describe, work = sys.argv[1:6]
units = {"ns": 1e-3, "µs": 1.0, "ms": 1e3, "s": 1e6}
line = re.compile(r"^sweep_eval/(oracle|closed_form)/(\S+)\s+([\d.]+) (ns|µs|ms|s)/iter")

pairs = []
for run in range(1, int(runs) + 1):
    times = {}
    for text in open(f"{work}/run{run}.txt"):
        match = line.match(text)
        if match:
            path, profile, value, unit = match.groups()
            times[(path, profile)] = float(value) * units[unit]
    for (path, profile), oracle in sorted(times.items()):
        if path != "oracle":
            continue
        closed = times[("closed_form", profile)]
        pairs.append({
            "run": run,
            "profile": profile,
            "oracle_us": round(oracle, 3),
            "closed_form_us": round(closed, 3),
            "ratio": round(oracle / closed, 1),
        })

if not pairs:
    sys.exit("no sweep_eval lines in the bench output")
doc = {
    "bench": "sweep_eval",
    "what": "one sweep point (3 OPT savings of one profile side, 70nm, small scale)",
    "machine": {"nproc": int(nproc), "git_describe": describe},
    "runs": int(runs),
    "per_point_us": {
        "oracle": round(statistics.median(p["oracle_us"] for p in pairs), 3),
        "closed_form": round(statistics.median(p["closed_form_us"] for p in pairs), 3),
    },
    "median_ratio": round(statistics.median(p["ratio"] for p in pairs), 1),
    "pairs": pairs,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}: oracle {doc['per_point_us']['oracle']} us/point, "
      f"closed form {doc['per_point_us']['closed_form']} us/point, "
      f"median ratio {doc['median_ratio']}x over {len(pairs)} pairs")
EOF
