#!/usr/bin/env bash
# Tier-1 CI: the full test suite on the default (turbo) kernel, the
# kernel regression tests on the reference kernel, two-way
# conformance (fuzz + golden traces across reference/turbo), a
# parallel-sweep smoke, and a wall-clock benchmark smoke run (quick
# mode: asserts cycle-exactness between kernels, not the speedup
# targets).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="${PWD}/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite (turbo kernel, the default) =="
python -m pytest tests/ -x -q

echo "== kernel equivalence tests (reference kernel) =="
REPRO_SLOW_KERNEL=1 python -m pytest \
    tests/test_perf_kernel.py tests/test_events_ordering.py \
    tests/test_events_engine.py tests/test_events_channels.py \
    tests/test_resource_claims.py -x -q

echo "== chain-equivalence tests (fused chain vs per-op, both tiers) =="
# The model-layer chain pipeline must match the per-op program
# bit-for-bit on each tier; the file pins both tiers itself, and the
# reference env run catches env-pinned construction paths too.
python -m pytest tests/test_chain_pipeline.py -x -q
REPRO_SLOW_KERNEL=1 python -m pytest tests/test_chain_pipeline.py -x -q

echo "== differential fuzz smoke (two-way, fixed seeds) =="
# Fixed seeds so CI is deterministic; the budget bounds wall clock on
# slow machines.  Every case replays on both kernel tiers and diffs
# turbo against the reference; divergences shrink to tests/repros/
# and fail the run.
python -m repro.testing.fuzz --seed 1986 --cases 200 --budget 30
python -m repro.testing.fuzz --seed 8086 --cases 120 --budget 20

echo "== occam optimizer fuzz smoke (dual-compile + AOT warm start) =="
# Every occam case compiles twice (-O0 and -O2), AOT-warm-starts the
# optimized build (asserting the runtime translator is never invoked),
# and diffs observable results across both kernel tiers; the budget
# bounds wall clock on slow machines.
python -m repro.testing.fuzz --seed 31415 --cases 80 \
    --generators occam --budget 45

echo "== service chaos smoke (kills, journal damage, quota, shed) =="
# Seeded chaos schedules against the machine-room layer: mid-drain
# process kills, journal truncation/corruption, cache damage, worker
# crashes, tenant quotas.  Jobs pin their tier, so each case runs
# once and must deliver every surviving job byte-identical to a
# clean run.
python -m repro.testing.fuzz --seed 1987 --cases 50 \
    --generators service --budget 120

echo "== service kill -9 round trip (journal replay, exactly-once) =="
python scripts/service_kill_smoke.py

echo "== net chaos smoke (torn frames, hostile bytes, server kills) =="
# The net generator is opt-in (it spins up live servers per case):
# seeded serving-chaos schedules attack the socket/HTTP front-end
# with torn frames, bad CRCs, oversize headers, hostile HTTP, and
# mid-drain kill -9; jobs pin their tier, so each case runs once and
# must serve every job byte-identical to clean direct execution.
python -m repro.testing.fuzz --seed 2601 --cases 50 \
    --generators net --budget 180

echo "== net smoke (remote batch + stream + kill -9 + restart) =="
python scripts/net_smoke.py

echo "== fault-tolerance smoke (ARQ retries + recovery digest) =="
python scripts/fault_smoke.py

echo "== golden trace conformance (reference / turbo) =="
python scripts/regen_golden.py --check

echo "== service smoke (batch twice; second pass all cache hits) =="
SERVICE_SMOKE_DIR=$(mktemp -d)
python -m repro.service batch examples/service_batch.json \
    --cache-dir "$SERVICE_SMOKE_DIR/cache" \
    --out "$SERVICE_SMOKE_DIR/pass1.json"
python -m repro.service batch examples/service_batch.json \
    --cache-dir "$SERVICE_SMOKE_DIR/cache" \
    --out "$SERVICE_SMOKE_DIR/pass2.json"
python - "$SERVICE_SMOKE_DIR" <<'EOF'
import json, sys
root = sys.argv[1]
with open(f"{root}/pass1.json") as f: cold = json.load(f)
with open(f"{root}/pass2.json") as f: warm = json.load(f)
assert cold["all_ok"] and warm["all_ok"]
statuses = [j["status"] for j in warm["jobs"]]
assert all(s == "cached" for s in statuses), statuses
cold_digests = [j["digest"] for j in cold["jobs"]]
warm_digests = [j["digest"] for j in warm["jobs"]]
assert cold_digests == warm_digests, "digest drift cold -> warm"
print(f"service smoke OK: {len(statuses)} jobs, warm pass all "
      "cache hits, digests match")
EOF
rm -rf "$SERVICE_SMOKE_DIR"

echo "== cache-versioning guard (golden digests <-> job-key schema) =="
python scripts/check_cache_version.py

echo "== service benchmark smoke (cold/warm identity, both tiers) =="
python benchmarks/bench_service.py --quick --no-json

echo "== net benchmark smoke (remote byte-identity, both tiers) =="
# Quick mode gates remote-vs-in-process byte identity on every kernel
# tier; the perf targets run on the committed full-run JSON below.
timeout 300 python benchmarks/bench_net.py --quick --no-json

echo "== remote serving gate (committed BENCH_net.json) =="
# The committed full-run JSON must carry the serving gates: warm
# remote throughput >= 100 rps over the Unix socket and p50 remote
# overhead <= 5 ms over in-process warm serving, all tiers identical.
python - <<'EOF'
import json
acc = json.load(open("BENCH_net.json"))["acceptance"]
assert acc["perf_targets_apply"], acc
assert acc["remote_rps"] >= acc["rps_target"], acc
assert acc["overhead_p50_ms"] <= acc["overhead_target_ms"], acc
assert acc["all_byte_identical"], acc
print("remote serving gate OK:", acc["remote_rps"], "rps,",
      acc["overhead_p50_ms"], "ms p50 overhead, all tiers identical")
EOF

echo "== parallel-sweep smoke (4 workers, byte-identical merge) =="
# The smoke gates determinism, not throughput; the timeout is a wall
# budget so a wedged worker pool fails CI instead of hanging it.
timeout 300 python benchmarks/bench_sweep.py --quick --no-json

echo "== coverage floor on the testing subsystem =="
if python -c "import pytest_cov" 2>/dev/null; then
    python -m pytest tests/test_testing_subsystem.py tests/test_repros.py \
        tests/test_golden_traces.py -q \
        --cov=repro.testing --cov-fail-under=85
    python -m pytest tests/test_occam_optimizer.py -q \
        --cov=repro.occam.optimizer --cov=repro.occam.aot \
        --cov-fail-under=85
else
    echo "pytest-cov not installed; skipping coverage floor"
fi

echo "== wall-clock benchmark smoke (both tiers, cycle-exactness) =="
# Wall budget: the smoke gates tier identity, not speed; a wedged
# tier run fails CI instead of hanging it.
timeout 300 python benchmarks/bench_wallclock.py --quick --no-json

echo "== matmul gate (committed BENCH_wallclock.json) =="
# The quick smoke above skips speedup targets (tiny sizes are all
# noise); the committed full-run JSON must carry the chain-pipeline
# gates: turbo >= 2.2x over reference on E12 matmul, with chains
# actually fused and batched.
python - <<'EOF'
import json
acc = json.load(open("BENCH_wallclock.json"))["acceptance"]
assert acc["matmul_target"] >= 2.2, acc
assert acc["matmul_wall_speedup"] >= acc["matmul_target"], acc
assert acc["matmul_chains_fused"] > 0, acc
assert acc["matmul_batched_elements"] > 0, acc
print("matmul gate OK:",
      acc["matmul_wall_speedup"], "x vs reference,",
      acc["matmul_chains_fused"], "chains fused,",
      acc["matmul_batched_elements"], "elements batched")
EOF

echo "CI OK"
