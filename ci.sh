#!/usr/bin/env bash
# Offline CI gate for varbuf. Runs exactly what a PR must pass:
#   1. formatting        (cargo fmt --check)
#   2. lints             (cargo clippy, warnings are errors)
#   3. rustdoc           (library docs, warnings are errors, so a doc
#                         link to a deleted or private item fails)
#   4. tier-1 build+test (the full offline workspace suite)
#   5. service smoke     (varbuf serve over a scripted request mix with
#                         injected panics in a flat and a hierarchical
#                         run: the service must contain both crashes and
#                         shut down cleanly; then one edit/opt/cts mix
#                         through varbuf serve and varbuf serve
#                         --no-cache: the cached replay must print the
#                         cache-off run's `ok opt` lines exactly; and a
#                         lone opt over the hard queue budget is served)
#   6. smoke bench       (scaling bench, shrunk via VARBUF_BENCH_SMOKE;
#                         every net's DP is one sequential walk, so the
#                         statistical and the deterministic side of each
#                         pair run on one thread alike and a stolen
#                         second vCPU slows neither alone; must emit a
#                         parseable target/BENCH_dp.smoke.json whose headline
#                         ratio — the median of interleaved stat/det pair
#                         ratios — stays under the checked-in
#                         results/ratchet.json ceiling; the committed
#                         full-size BENCH_dp.json is never touched)
#   7. cts capacity      (64k-sink varbuf cts under --budget-mem 512; its
#                         peak RSS must stay under the results/ratchet.json
#                         ceiling, and it must report a global skew)
#   8. profile smoke     (profile_stat --json: the per-phase attribution
#                         report must be well-formed — finite phase
#                         timers that fit inside the wall clock)
# No network access is required; the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (RUSTDOCFLAGS=-D warnings cargo doc --workspace --no-deps --lib)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> cargo build --workspace"
cargo build --workspace

echo "==> cargo test --workspace"
cargo test --workspace

echo "==> service smoke (varbuf serve: scripted mix with injected panics)"
SERVE_OUT=$(printf 'ping\nopen random:8:7\nedit wire s0.0 1 140\nopt s0.0\ncts s0.0 cut-nodes=12\ninject panic 3\nopt s0.0\nopt s0.0\nclose s0.0\nopen random:8:7\ninject panic 5\ncts s0.1 cut-nodes=12\nstats\nquit\n' \
  | ./target/debug/varbuf serve --faults --watchdog 10 2>/dev/null)
echo "$SERVE_OUT" | sed 's/^/    /'
grep -q '^ok edit'           <<<"$SERVE_OUT" || { echo "serve smoke: edit ack missing" >&2; exit 1; }
grep -q '^ok opt id=1'       <<<"$SERVE_OUT" || { echo "serve smoke: clean optimize missing" >&2; exit 1; }
grep -q '^ok opt id=2'       <<<"$SERVE_OUT" || { echo "serve smoke: hierarchical cts optimize missing" >&2; exit 1; }
grep -q '^err internal'      <<<"$SERVE_OUT" || { echo "serve smoke: contained panic missing" >&2; exit 1; }
grep -q '^err poisoned'      <<<"$SERVE_OUT" || { echo "serve smoke: poisoned-session error missing" >&2; exit 1; }
grep -q 'panics=2'           <<<"$SERVE_OUT" || { echo "serve smoke: stats missed a contained panic (the hierarchical cts run must fire its fault too)" >&2; exit 1; }
grep -q '^ok bye$' <<<"$(tail -1 <<<"$SERVE_OUT")" || { echo "serve smoke: no clean shutdown" >&2; exit 1; }
# Cache parity: every edit kind, flat and hierarchical opts; the cached
# session must answer every opt exactly as the cache-off one does.
SERVE_MIX=$'open random:128:5\nopt s0.0\nedit rat s0.0 9 -35.5\nopt s0.0\nedit wire s0.0 13 1200\nopt s0.0\nedit sink s0.0 15 14.5\nopt s0.0\ncts s0.0 cut-nodes=64\nedit rat s0.0 12 -80\ncts s0.0 cut-nodes=64\nedit wire s0.0 7 400\nopt s0.0\nstats\nquit\n'
WARM_OUT=$(./target/debug/varbuf serve <<<"$SERVE_MIX" 2>/dev/null)
COLD_OUT=$(./target/debug/varbuf serve --no-cache <<<"$SERVE_MIX" 2>/dev/null)
echo "$WARM_OUT" | sed 's/^/    /'
WARM_OPTS=$(grep '^ok opt' <<<"$WARM_OUT" || true)
COLD_OPTS=$(grep '^ok opt' <<<"$COLD_OUT" || true)
[ "$(grep -c '^ok opt' <<<"$WARM_OPTS")" -eq 7 ] || { echo "serve parity: expected 7 ok opt lines" >&2; exit 1; }
grep -q 'cache_hits=[1-9]' <<<"$WARM_OUT" || { echo "serve parity: the cached session replayed nothing" >&2; exit 1; }
[ "$WARM_OPTS" = "$COLD_OPTS" ] || { echo "serve parity: cached and cache-off opt lines differ" >&2; diff <(echo "$COLD_OPTS") <(echo "$WARM_OPTS") >&2; exit 1; }
# Admission: a lone request over the hard queue budget is served, not shed.
LONE_OUT=$(./target/debug/varbuf serve --queue-soft 50 --queue-hard 100 <<<$'open random:64:3\nopt s0.0\n' 2>/dev/null)
grep -q '^ok opt' <<<"$LONE_OUT" || { echo "serve smoke: a lone over-budget opt was not served" >&2; echo "$LONE_OUT" >&2; exit 1; }

echo "==> smoke bench (VARBUF_BENCH_SMOKE=1 cargo bench --bench scaling)"
SMOKE_JSON=target/BENCH_dp.smoke.json
rm -f "$SMOKE_JSON"
VARBUF_BENCH_SMOKE=1 cargo bench --bench scaling
test -s "$SMOKE_JSON" || { echo "$SMOKE_JSON missing or empty" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_JSON" <<'EOF'
import json, math, sys
path = sys.argv[1]
r = json.load(open(path))
ratio = r.get('stat_vs_det_ratio')
if not isinstance(ratio, (int, float)) or not math.isfinite(ratio) or ratio <= 0:
    sys.exit(f'{path}: stat_vs_det_ratio missing or not a finite positive number')
# Dominance-pruning telemetry: the counter must be present and its
# ratio to generated solutions finite.
if not isinstance(r.get('pruned_by_dominance'), int) or r['pruned_by_dominance'] < 0:
    sys.exit(f'{path}: pruned_by_dominance missing or not a non-negative integer')
v = r.get('pruned_by_dominance_ratio')
if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
    sys.exit(f'{path}: pruned_by_dominance_ratio missing or not a finite non-negative number')
# The headline ratio must say which size produced it.
v = r.get('stat_vs_det_ratio_sinks')
if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 1:
    sys.exit(f'{path}: stat_vs_det_ratio_sinks missing or not a finite positive number')
# Ratchet: the statistical/deterministic gap must not regress past the
# checked-in ceiling. The smoke ratio is the median of interleaved
# (stat, det) pair ratios at a small N; the ceiling still carries
# headroom — it catches collapses, not single-digit drift.
ratchet = json.load(open('results/ratchet.json'))
ceiling = ratchet['stat_vs_det_ratio_max']
if ratio > ceiling:
    sys.exit(f'{path}: stat_vs_det_ratio {ratio:.2f} exceeds the '
             f'results/ratchet.json ceiling {ceiling} — the statistical DP '
             f'regressed (or the deterministic baseline got faster; re-ratchet '
             f'deliberately if so)')
# Lazy wire propagation: the deferred-transform path (the default) must
# keep beating the eager per-segment kernels on the subdivision-heavy
# bench by at least the ratchet floor. The oracle suite pins the two
# paths equal-objective, so a collapse here means the deferral stopped
# engaging (or its materialization points multiplied), not a tradeoff.
lazy = r.get('lazy_wire_speedup')
if not isinstance(lazy, (int, float)) or not math.isfinite(lazy) or lazy <= 0:
    sys.exit(f'{path}: lazy_wire_speedup missing or not a finite positive number')
lazy_floor = ratchet.get('lazy_wire_speedup_min', 1.0)
if lazy < lazy_floor:
    sys.exit(f'{path}: lazy_wire_speedup {lazy:.2f} below the '
             f'results/ratchet.json floor {lazy_floor} — deferred wire '
             f'transforms stopped paying for themselves')
# Resident-service telemetry: latency percentiles and throughput must be
# positive finite numbers, the percentiles ordered, and the overload
# burst must actually have shed work.
for key in ('service_p50_ns', 'service_p99_ns', 'service_throughput_rps'):
    v = r.get(key)
    if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
        sys.exit(f'{path}: {key} missing or not a finite positive number')
if r['service_p99_ns'] < r['service_p50_ns']:
    sys.exit(f'{path}: service p99 below p50')
shed = r.get('service_shed')
if not isinstance(shed, (int, float)) or shed < 1:
    sys.exit(f'{path}: service_shed missing or zero')
# Incremental re-optimization: the cached edit→opt loop must beat the
# cold rerun by at least the ratchet floor (smoke sizes are small, so
# the floor is far below the full-size target), and the warm side must
# have actually replayed (hit rate in (0, 1]).
speedup = r.get('incremental_speedup')
if not isinstance(speedup, (int, float)) or not math.isfinite(speedup) or speedup <= 0:
    sys.exit(f'{path}: incremental_speedup missing or not a finite positive number')
floor = ratchet.get('incremental_speedup_min', 1.0)
if speedup < floor:
    sys.exit(f'{path}: incremental_speedup {speedup:.2f} below the '
             f'results/ratchet.json floor {floor} — the session cache stopped '
             f'paying for itself')
hit_rate = r.get('cache_hit_rate')
if not isinstance(hit_rate, (int, float)) or not math.isfinite(hit_rate) \
        or hit_rate <= 0 or hit_rate > 1:
    sys.exit(f'{path}: cache_hit_rate missing or outside (0, 1]')
# Clock-tree pipeline: both hierarchical wall-clock points must be
# present and positive, and the parked-frontier byte peak the governor
# observed must fit inside the budget the run was governed under.
for key in ('cts_16k_wall_ms', 'cts_64k_wall_ms'):
    v = r.get(key)
    if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
        sys.exit(f'{path}: {key} missing or not a finite positive number')
for key in ('peak_chunk_bytes', 'cts_budget_bytes'):
    v = r.get(key)
    if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
        sys.exit(f'{path}: {key} missing or not a finite non-negative number')
if r['peak_chunk_bytes'] > r['cts_budget_bytes']:
    sys.exit(f'{path}: peak_chunk_bytes {r["peak_chunk_bytes"]:.0f} exceeds '
             f'the governed cts_budget_bytes {r["cts_budget_bytes"]:.0f}')
if r['peak_chunk_bytes'] <= 0:
    sys.exit(f'{path}: peak_chunk_bytes is zero — the decomposition '
             'never parked a frontier, so the streaming path went unexercised')
groups = {b.get('group') for b in r.get('benches', [])}
for required in ('canonical_kernels', 'dp_scaling', 'service', 'incremental',
                 'clock_cts', 'wire_heavy'):
    if required not in groups:
        sys.exit(f'{path}: {required} bench group missing')
print(f'{path} ok: stat_vs_det_ratio={ratio:.2f}, '
      f'incremental_speedup={speedup:.2f} (hit rate {hit_rate:.3f}), '
      f'dominance pruned={r["pruned_by_dominance"]}, '
      f'groups={sorted(g for g in groups if g)}')
EOF
else
  echo "(python3 unavailable; skipped the smoke bench schema check)"
fi

echo "==> cts capacity gate (64k-sink H-tree, hierarchical, governed memory budget, peak-RSS ratchet)"
cargo build --release --bin varbuf
CTS_CMD=(./target/release/varbuf cts --levels 16 --budget-mem 512)
if command -v python3 >/dev/null 2>&1; then
  # The pipeline runs as python3's child, so its peak RSS comes back from
  # getrusage(RUSAGE_CHILDREN) without any CLI support.
  CTS_OUT=$(python3 - "${CTS_CMD[@]}" <<'EOF'
import json, resource, subprocess, sys
run = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, text=True)
sys.stdout.write(run.stdout)
if run.returncode != 0:
    sys.exit(f'cts gate: the 64k run exited {run.returncode}')
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
ceiling = json.load(open('results/ratchet.json'))['cts_64k_peak_rss_mb_max']
print(f'peak RSS {peak_mb:.0f} MB (ratchet ceiling {ceiling} MB)')
if peak_mb > ceiling:
    sys.exit(f'cts gate: peak RSS {peak_mb:.0f} MB exceeds the results/ratchet.json '
             f'ceiling cts_64k_peak_rss_mb_max = {ceiling} MB')
EOF
)
else
  CTS_OUT=$("${CTS_CMD[@]}")
  echo "(python3 unavailable; skipped the cts peak-RSS ratchet)"
fi
echo "$CTS_OUT" | sed 's/^/    /'
grep -q '^htree16: 65536 sinks' <<<"$CTS_OUT" || { echo "cts gate: 64k run did not complete" >&2; exit 1; }
grep -q 'peak chunk bytes'      <<<"$CTS_OUT" || { echo "cts gate: frontier ledger peak missing" >&2; exit 1; }
grep -q '^global skew '         <<<"$CTS_OUT" || { echo "cts gate: skew analysis did not report a global skew" >&2; exit 1; }

echo "==> profile smoke (profile_stat --json: phase attribution well-formed)"
cargo build --release -p varbuf-bench --examples
PROFILE_JSON=$(mktemp /tmp/profile_stat.XXXXXX.json)
./target/release/examples/profile_stat 64 --json "$PROFILE_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$PROFILE_JSON" <<'EOF'
import json, math, sys
r = json.load(open(sys.argv[1]))
# Every phase timer and counter the attribution tables are built from
# must be present and finite; the phases must fit inside the wall clock
# (generous slack: Instant overhead inflates fine-grained intervals).
for key in ('wall_ns', 'wire_ns', 'merge_ns', 'prune_ns', 'buffer_ns'):
    v = r.get(key)
    if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
        sys.exit(f'profile_stat: {key} missing or not a finite non-negative number')
if r['wall_ns'] <= 0:
    sys.exit('profile_stat: wall_ns must be positive')
phase_sum = r['wire_ns'] + r['merge_ns'] + r['prune_ns'] + r['buffer_ns']
if phase_sum > 1.5 * r['wall_ns']:
    sys.exit(f'profile_stat: phase timers ({phase_sum:.0f} ns) wildly exceed '
             f'the wall clock ({r["wall_ns"]:.0f} ns) — attribution is broken')
for key in ('sinks', 'nodes_processed', 'solutions_generated',
            'solutions_pruned', 'pruned_by_dominance', 'max_solutions_per_node'):
    v = r.get(key)
    if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
        sys.exit(f'profile_stat: {key} missing or not a finite non-negative number')
if r['solutions_generated'] < 1 or r['nodes_processed'] < 1:
    sys.exit('profile_stat: counters say the run did no work')
print(f"profile_stat ok: wall {r['wall_ns']/1e6:.2f} ms, phases "
      f"{phase_sum/1e6:.2f} ms, {int(r['solutions_generated'])} generated")
EOF
else
  echo "(python3 unavailable; skipped profile_stat schema check)"
fi
rm -f "$PROFILE_JSON"

echo "==> ci.sh: all gates passed"
