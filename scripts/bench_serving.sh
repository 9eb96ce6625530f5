#!/usr/bin/env bash
# Reproduces results/BENCH_serving_trajectory.json: serving goodput,
# shed 503s and latency of the shipping configuration, on one machine,
# with the CI loadgen mix at pipeline depth 8.
#
#   levels           one run each at 4, 64 and 256 keep-alive
#                    connections: goodput (2xx/s), shed 503s, p50, p99
#   tracing_overhead five interleaved tracing-on/tracing-off
#                    (--no-recorder) pairs at 4 connections; the median
#                    of the per-pair goodput ratios is the tracing cost
#   ab               only when a baseline `leakage-server` binary is
#                    given: five interleaved baseline/change pairs at
#                    each connection count, alternating which run goes
#                    first, with the median per-pair goodput ratio
#                    (change / baseline)
#
# Single runs drift by ±15% on shared hardware; both runs of a pair see
# the same machine phase, so the per-pair ratio cancels the drift and
# the median across pairs discards outlier phases.
#
# Usage: scripts/bench_serving.sh [out.json] [baseline-leakage-server]
#   BENCH_SECONDS (default 5) sets the length of each `levels` run;
#   paired runs take 4 s each.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results/BENCH_serving_trajectory.json}"
BASELINE="${2:-}"
LEVEL_SECONDS="${BENCH_SECONDS:-5}"
PAIR_SECONDS=4
PAIRS=5
PIPELINE=8
CONNECTION_LEVELS=(4 64 256)
MIX='/v1/table/2?scale=test:8,/healthz:1,/metrics:1'

if [ -n "$BASELINE" ] && [ ! -x "$BASELINE" ]; then
  echo "baseline server $BASELINE is not an executable" >&2
  exit 2
fi

cargo build --release -p leakage-server --bins

SERVER=./target/release/leakage-server
LOADGEN=./target/release/loadgen
WORK="$(mktemp -d)"
trap 'kill $(cat "$WORK"/server.pid 2>/dev/null) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# run <name> <server binary> <connections> <seconds> [server flags...]
run() {
  local name="$1" server="$2" connections="$3" seconds="$4"
  shift 4
  local log="$WORK/$name.log"

  "$server" --addr 127.0.0.1:0 --scale test "$@" > "$log" 2>&1 &
  echo $! > "$WORK/server.pid"
  for _ in $(seq 1 100); do
    grep -q '^listening on ' "$log" && break
    sleep 0.1
  done
  grep -q '^listening on ' "$log" || { cat "$log"; exit 1; }
  local addr
  addr=$(sed -n 's/^listening on //p' "$log" | head -n1)

  # Measure serving, not first-touch simulation of the profile suite.
  curl -fsS "http://$addr/v1/table/2?scale=test" > /dev/null

  "$LOADGEN" --addr "$addr" --connections "$connections" --seconds "$seconds" \
    --pipeline "$PIPELINE" --mix "$MIX" > "$WORK/$name.json"

  kill "$(cat "$WORK/server.pid")" 2>/dev/null || true
  wait "$(cat "$WORK/server.pid")" 2>/dev/null || true
  rm -f "$WORK/server.pid"

  python3 - "$name" "$WORK/$name.json" <<'EOF'
import json, sys
name, path = sys.argv[1:3]
r = json.load(open(path))
print('%-18s goodput %9.0f/s  503s %6d  p50 %6d us  p99 %6d us  errors %d'
      % (name, r['goodput_rps'], r['status_5xx'], r['p50_us'], r['p99_us'],
         r['transport_errors']))
EOF
}

for c in "${CONNECTION_LEVELS[@]}"; do
  run "level_$c" "$SERVER" "$c" "$LEVEL_SECONDS"
done

for i in $(seq 1 "$PAIRS"); do
  run "trace_on_$i" "$SERVER" 4 "$PAIR_SECONDS"
  run "trace_off_$i" "$SERVER" 4 "$PAIR_SECONDS" --no-recorder
done

if [ -n "$BASELINE" ]; then
  for c in "${CONNECTION_LEVELS[@]}"; do
    for i in $(seq 1 "$PAIRS"); do
      if [ $((i % 2)) -eq 1 ]; then
        run "ab_${c}_base_$i" "$BASELINE" "$c" "$PAIR_SECONDS"
        run "ab_${c}_change_$i" "$SERVER" "$c" "$PAIR_SECONDS"
      else
        run "ab_${c}_change_$i" "$SERVER" "$c" "$PAIR_SECONDS"
        run "ab_${c}_base_$i" "$BASELINE" "$c" "$PAIR_SECONDS"
      fi
    done
  done
fi

python3 - "$WORK" "$OUT" "$LEVEL_SECONDS" "$PAIR_SECONDS" "$PAIRS" "$PIPELINE" "$MIX" \
  "$BASELINE" "$(nproc)" "$(git describe --always --dirty 2>/dev/null || echo unknown)" \
  "${CONNECTION_LEVELS[@]}" <<'EOF'
import json, statistics, sys
(work, out, level_seconds, pair_seconds, pairs, pipeline, mix, baseline,
 nproc, describe) = sys.argv[1:11]
levels = [int(c) for c in sys.argv[11:]]
pairs = int(pairs)

def report(name):
    return json.load(open(f'{work}/{name}.json'))

def summary(r):
    return {'goodput_rps': r['goodput_rps'], 'shed_503': r['status_5xx'],
            'p50_us': r['p50_us'], 'p99_us': r['p99_us'],
            'transport_errors': r['transport_errors']}

doc = {
    'machine': {'nproc': int(nproc), 'git_describe': describe},
    'workload': {'mix': mix, 'pipeline': int(pipeline),
                 'server_flags': '--scale test'},
    'levels': [],
}
for c in levels:
    r = report(f'level_{c}')
    doc['levels'].append({'connections': c, 'seconds': int(level_seconds),
                          **summary(r), 'report': r})

on = [report(f'trace_on_{i}')['goodput_rps'] for i in range(1, pairs + 1)]
off = [report(f'trace_off_{i}')['goodput_rps'] for i in range(1, pairs + 1)]
ratios = [a / b for a, b in zip(on, off)]
doc['tracing_overhead'] = {
    'connections': 4,
    'pairs': pairs,
    'seconds_per_run': int(pair_seconds),
    'on_goodput_rps': on,
    'off_goodput_rps': off,
    'pair_ratios': [round(r, 4) for r in ratios],
    'median_ratio': round(statistics.median(ratios), 4),
}

if baseline:
    ab = {'baseline_binary': baseline, 'pairs': pairs,
          'seconds_per_run': int(pair_seconds),
          'ratio': 'change goodput / baseline goodput', 'levels': []}
    for c in levels:
        rows = []
        for i in range(1, pairs + 1):
            base = summary(report(f'ab_{c}_base_{i}'))
            change = summary(report(f'ab_{c}_change_{i}'))
            rows.append({'first': 'baseline' if i % 2 else 'change',
                         'baseline': base, 'change': change,
                         'ratio': round(change['goodput_rps'] / base['goodput_rps'], 4)})
        ab['levels'].append({
            'connections': c,
            'median_ratio': round(statistics.median(r['ratio'] for r in rows), 4),
            'median_shed_503_baseline':
                statistics.median(r['baseline']['shed_503'] for r in rows),
            'median_shed_503_change':
                statistics.median(r['change']['shed_503'] for r in rows),
            'pairs': rows,
        })
    doc['ab'] = ab

json.dump(doc, open(out, 'w'), indent=2)
print(f'wrote {out}')
for level in doc['levels']:
    print('%4d connections: goodput %.0f/s, %d shed 503s, p99 %d us'
          % (level['connections'], level['goodput_rps'], level['shed_503'],
             level['p99_us']))
print('tracing on/off median goodput ratio over %d pairs: %.3f'
      % (pairs, doc['tracing_overhead']['median_ratio']))
for level in doc.get('ab', {}).get('levels', []):
    print('A/B %4d connections: median change/baseline goodput %.3f, '
          'median 503s %s -> %s'
          % (level['connections'], level['median_ratio'],
             level['median_shed_503_baseline'], level['median_shed_503_change']))
EOF
