#!/usr/bin/env bash
# Perf-trajectory gate: run the throughput bench (QUICK corpus), check the
# end-to-end threads=1 pipeline throughput and jump-table share, the
# file-level batch speedup at 2 workers, and diff the bench's
# metadis.trace.v6 record against the committed baseline in
# tests/data/bench/ with `metadis trace-diff`.
#
# Count metrics (viability iterations, corrections, degradations) are
# deterministic and gate tightly; wall-clock gets a very generous ratio (the
# noise floor) so the gate survives slow or busy CI machines while still
# catching order-of-magnitude blowups. Exits 5 on regression, mirroring the
# trace-diff CI gate.
#
# The serve gate runs the serve_load bench (load generator + fault
# injection against the nonblocking service front-end) and checks its
# metadis.bench.serve.v1 record: zero crashes, /healthz live under hostile
# clients, two-sided shed behavior under 2x overload (sheds AND successes),
# and a generous p99 latency ceiling. It also gates the series-sampler
# overhead: the bench's interleaved best-of A/B arms (sampler off vs a 10ms
# tick) must show under 2% RPS cost.
#
# Regenerate the baselines after an intentional perf-relevant change with:
#   QUICK=1 BENCH_JSON_DIR=tests/data/bench \
#     cargo bench --offline -p bench --bench throughput
#   QUICK=1 BENCH_JSON_DIR=tests/data/bench \
#     cargo bench --offline -p metadis --bench serve_load
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=tests/data/bench/BENCH_throughput.json
if [[ ! -f "$BASELINE" ]]; then
    echo "bench-check: missing baseline $BASELINE" >&2
    exit 3
fi
SERVE_BASELINE=tests/data/bench/BENCH_serve.json
if [[ ! -f "$SERVE_BASELINE" ]]; then
    echo "bench-check: missing baseline $SERVE_BASELINE" >&2
    exit 3
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== bench-check: QUICK throughput run"
# The bench itself asserts the <5% telemetry-overhead budget (exit 1).
QUICK=1 BENCH_JSON_DIR="$TMP" cargo bench -q --offline -p bench --bench throughput \
    | tee "$TMP/bench-stdout.txt"

echo "== bench-check: superset-build throughput floor"
# The bench prints "superset-build bytes/sec = N" — single-thread
# Superset::build over the QUICK corpus, best of three arms spread over the
# whole bench run (before the tool arms, between the scaling arms, after
# the telemetry arms): a single best-of-2 arm once read 32.7 MB/s in a slow
# host phase against 50-52 MB/s otherwise. The length-class window fast path
# (x86-isa prescan_window + the fused WATTR dispatch table) took the
# builder from ~19 MB/s to ~50-58 MB/s on the 2.1 GHz reference host
# (~110 → ~38 cycles per offset; the remaining gap to the 5x aspiration of
# ~95 MB/s is core frequency, not instruction count — the loop is already
# branchless at ~4 IPC). The enforced floor is 2x the pre-fast-path
# baseline of 18,978,831 B/s: comfortably under the slowest phase a busy
# shared vCPU has shown with the fast path, and unreachable by every arm if
# the fast path regresses to per-offset full decode (~19 MB/s). Override
# with BENCH_SUPERSET_FLOOR for stricter local runs.
FLOOR="${BENCH_SUPERSET_FLOOR:-37957662}"
SUPERSET_BPS="$(sed -n 's/^superset-build bytes\/sec = \([0-9]*\)$/\1/p' "$TMP/bench-stdout.txt")"
if [[ -z "$SUPERSET_BPS" ]]; then
    echo "bench-check: bench output carried no superset-build bytes/sec line" >&2
    exit 3
fi
if ! awk -v b="$SUPERSET_BPS" -v f="$FLOOR" 'BEGIN { exit !(b >= f) }'; then
    echo "bench-check: superset-build ${SUPERSET_BPS} B/s under the ${FLOOR} B/s floor" >&2
    exit 5
fi
echo "bench-check: superset-build ${SUPERSET_BPS} B/s (floor ${FLOOR})"

echo "== bench-check: end-to-end pipeline gates (threads=1, scaling corpus)"
# The bench prints "pipeline bytes/sec(threads=1) = N" and
# "jumptable share(threads=1) = X%" from the threads=1 arm on the ≥1 MiB
# scaling corpus. Jump-table detection used to full-decode every viable
# offset and took ~66% of that pipeline at ~1.0-1.3 MB/s end to end; it now
# full-decodes only lea / mov-load anchors (6.6-9.9% of the pipeline,
# 4.4-6.1 MB/s over seven QUICK runs on the 2.1 GHz reference host).
# * The share gate (≤15%) is a ratio of two walls from the same run, so it
#   does not depend on host speed; any return to decoding every offset
#   pushes it far past the bound.
# * The throughput floor is 2x the 1.28 MB/s headline the old scan gave,
#   set well under the new speed because shared 2-core hosts have slow
#   phases: one on the reference host pushed superset-build to 29.8 MB/s,
#   below its own 37.96 MB/s floor. The full 3x end-to-end gain is shown by the
#   metadis-bench A/B (examples/metadis-bench/README.md), not by a fixed
#   floor.
PIPELINE_FLOOR=2560000
JUMPTABLE_MAX_PCT=15
PIPELINE_BPS="$(sed -n 's/^pipeline bytes\/sec(threads=1) = \([0-9]*\)$/\1/p' "$TMP/bench-stdout.txt")"
JT_SHARE="$(sed -n 's/^jumptable share(threads=1) = \([0-9.]*\)%$/\1/p' "$TMP/bench-stdout.txt")"
if [[ -z "$PIPELINE_BPS" || -z "$JT_SHARE" ]]; then
    echo "bench-check: bench output carried no pipeline bytes/sec or jumptable share line" >&2
    exit 3
fi
if ! awk -v s="$JT_SHARE" -v m="$JUMPTABLE_MAX_PCT" 'BEGIN { exit !(s <= m) }'; then
    echo "bench-check: jumptable takes ${JT_SHARE}% of the pipeline, over ${JUMPTABLE_MAX_PCT}%" >&2
    exit 5
fi
if ! awk -v b="$PIPELINE_BPS" -v f="$PIPELINE_FLOOR" 'BEGIN { exit !(b >= f) }'; then
    echo "bench-check: pipeline ${PIPELINE_BPS} B/s under the ${PIPELINE_FLOOR} B/s floor" >&2
    exit 5
fi
echo "bench-check: pipeline ${PIPELINE_BPS} B/s (floor ${PIPELINE_FLOOR}), jumptable share ${JT_SHARE}% (max ${JUMPTABLE_MAX_PCT}%)"

echo "== bench-check: prescan/decode agreement gate"
# The superset builder trusts the window fast path completely; before
# trusting the throughput number, prove the fast path still agrees with
# the full decoder on generated corpora, structure-aware mutants, and
# random soup (release mode: the differential sweep covers ~700k offsets).
cargo test --release -q --offline -p disasm-core --test prescan_differential

echo "== bench-check: file-level batch scaling gate"
# The bench prints "batch speedup(2) = X.XXx" — best-of-5 wall of a fixed
# batch of 48 small generated binaries through par::run_jobs at 1 worker
# over the same at 2 workers, arms interleaved. Parallelism is file-level:
# one binary runs on one thread, and independent binaries share nothing, so
# two workers paid 1.36-2.17x on the 2-core reference host. Under 1.30x
# means the pool stopped paying for itself: exit 5. That host also has
# phases in which its two vCPUs deliver about one core of compute (a plain
# integer loop read 1.10x on 2 threads) and this gate then reads ~1.0x;
# check the host before blaming a change. Skipped on one core, where the
# ratio measures timeslicing, not scaling.
BATCH_MIN_SPEEDUP=1.30
CORES="$(nproc 2>/dev/null || echo 1)"
BATCH_SPEEDUP="$(sed -n 's/^batch speedup(2) = \([0-9.]*\)x$/\1/p' "$TMP/bench-stdout.txt")"
if [[ -z "$BATCH_SPEEDUP" ]]; then
    echo "bench-check: bench output carried no batch speedup(2) line" >&2
    exit 3
fi
if [[ "$CORES" -lt 2 ]]; then
    echo "bench-check: $CORES core — batch scaling gate skipped (speedup(2) = ${BATCH_SPEEDUP}x)"
elif ! awk -v s="$BATCH_SPEEDUP" -v m="$BATCH_MIN_SPEEDUP" 'BEGIN { exit !(s >= m) }'; then
    echo "bench-check: batch speedup(2) = ${BATCH_SPEEDUP}x < ${BATCH_MIN_SPEEDUP}x on $CORES cores" >&2
    exit 5
else
    echo "bench-check: batch speedup(2) = ${BATCH_SPEEDUP}x (min ${BATCH_MIN_SPEEDUP}x) on $CORES cores"
fi

echo "== bench-check: trace-diff vs $BASELINE"
# Wall noise floor: 100x. Anything past that on a QUICK corpus is a hang or
# an accidental O(n^2), not a slow machine.
cargo run --release --offline --bin metadis -- \
    trace-diff "$BASELINE" "$TMP/BENCH_throughput.json" \
    --max-wall-ratio 100

echo "== bench-check: serve load + fault-injection run"
# The bench itself asserts zero crashes, a live /healthz, finished hostile
# clients, and two-sided overload behavior (exit 101 on violation).
QUICK=1 BENCH_JSON_DIR="$TMP" cargo bench -q --offline -p metadis --bench serve_load \
    | tee "$TMP/serve-stdout.txt"

echo "== bench-check: serve gate vs $SERVE_BASELINE"
field() { sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$1"; }
flag()  { sed -n "s/.*\"$2\":\(true\|false\).*/\1/p" "$1"; }
SERVE_JSON="$TMP/BENCH_serve.json"
for f in crashes overload_shed overload_success p99_ns sampler_overhead_pct rps_sampler_off; do
    if [[ -z "$(field "$SERVE_JSON" "$f")" ]]; then
        echo "bench-check: serve record carried no '$f' field" >&2
        exit 3
    fi
done
if ! grep -q '"schema":"metadis.bench.serve.v1"' "$SERVE_BASELINE"; then
    echo "bench-check: committed $SERVE_BASELINE is not a metadis.bench.serve.v1 record" >&2
    exit 3
fi
# zero-crash + liveness are hard gates
if [[ "$(field "$SERVE_JSON" crashes)" != "0" ]]; then
    echo "bench-check: serve bench recorded crashes != 0" >&2
    exit 5
fi
if [[ "$(flag "$SERVE_JSON" healthz_ok)" != "true" || "$(flag "$SERVE_JSON" hostile_ok)" != "true" ]]; then
    echo "bench-check: /healthz or hostile clients failed under fault injection" >&2
    exit 5
fi
# shed-rate sanity under 2x overload: some requests shed, some served
if [[ "$(field "$SERVE_JSON" overload_shed)" == "0" ]]; then
    echo "bench-check: 2x overload produced no sheds — admission control inert" >&2
    exit 5
fi
if [[ "$(field "$SERVE_JSON" overload_success)" == "0" ]]; then
    echo "bench-check: 2x overload served nothing — shedding everything" >&2
    exit 5
fi
# p99 ceiling: generous noise floor (5s) — catches hangs and event-loop
# stalls, not slow machines
P99="$(field "$SERVE_JSON" p99_ns)"
if ! awk -v p="$P99" 'BEGIN { exit !(p <= 5000000000) }'; then
    echo "bench-check: serve p99 = ${P99}ns past the 5s ceiling" >&2
    exit 5
fi
echo "bench-check: serve p99 = ${P99}ns, overload shed/success = \
$(field "$SERVE_JSON" overload_shed)/$(field "$SERVE_JSON" overload_success), crashes = 0"

echo "== bench-check: series-sampler overhead gate"
# Best-of-N interleaved arms: sampler off vs a 10ms tick (100x the default
# rate). Over 2% RPS cost means the sampler leaked onto the request path.
OVERHEAD="$(field "$SERVE_JSON" sampler_overhead_pct)"
if ! awk -v o="$OVERHEAD" 'BEGIN { exit !(o <= 2.0) }'; then
    echo "bench-check: series sampler costs ${OVERHEAD}% RPS, past the 2% budget" >&2
    exit 5
fi
echo "bench-check: sampler overhead = ${OVERHEAD}% \
(off $(field "$SERVE_JSON" rps_sampler_off) rps, on $(field "$SERVE_JSON" rps) rps)"

echo "bench-check passed."
