#!/usr/bin/env bash
# The full offline CI gate: formatting, lints, release build, tests.
# The workspace has no external dependencies, so every step runs without
# network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release --offline

echo "== cargo test"
cargo test --workspace -q --offline

echo "== prescan/decode differential fuzz gate (release)"
# The superset builder trusts the branchless prescan_window fast path for
# length, class, flow and displacement at every byte offset. Re-prove, in
# release mode (the table-driven path the builder actually runs), that the
# window and the full scanner agree with decode() across bingen corpora at
# every optimization profile, the adversarial anti-disassembly corpus,
# structure-aware mutants, and seeded random soup.
cargo test --release -q --offline -p disasm-core --test prescan_differential
cargo test --release -q --offline -p x86-isa window_differential

echo "== jump-table anchor prefilter differential gate (release)"
# Jump-table detection full-decodes only lea / mov-load candidates, relying
# on the class agreement proven above. Re-prove that the filtered scan
# returns exactly what the unfiltered scan (every viable offset tried as an
# anchor) returns: bingen corpora at O0-O3 with text and .rodata tables,
# the adversarial corpus, structure-aware mutants, an expired deadline and
# a 2-entry table cap.
cargo test --release -q --offline -p disasm-core --lib jumptable::tests::prefilter

echo "== parallel determinism gate (threads=1 vs N, release)"
# --threads sizes only the file-level worker pools; one binary always runs
# on one thread, so its output must not depend on it: for seeded bingen
# corpora (incl. adversarial + raw soup), byte_class, inst_starts,
# corrections and degradation lists are compared bit-for-bit between
# threads=1 and threads∈{2,4,8}.
cargo test --release -q --offline -p disasm-core --test parallel_determinism

echo "== tier-1 tests under METADIS_THREADS=4"
# Re-run the workspace tests with the default thread count forced to 4, so
# every test that doesn't pin Config::threads runs its batch and serve
# surfaces (process_batch, the serve dispatcher, evaluate_threads) on a
# 4-wide worker pool.
METADIS_THREADS=4 cargo test --workspace -q --offline

echo "== serve soak suite (hostile clients, release)"
# The fault-injection soak: slowloris, mid-header disconnects, oversized
# request lines, queue saturation, graceful drain, and a 100-concurrent
# mixed-fault soak against the nonblocking serve reactor. Release mode so
# the 100-client test exercises real concurrency, not debug-build slowness.
cargo test --release -q --offline --test serve_e2e

echo "== fuzz-smoke (fixed seeds)"
# Adversarial smoke pass: 10k structure-aware ELF mutants through the whole
# parse -> load -> disassemble stack under a deadline. Deterministic seeds,
# ~10s in release; fails on any panic, hang, or byte-coverage hole.
cargo run --release --offline --bin fuzz-smoke -- --iterations 10000 --seed 1

echo "== trace-diff regression gate"
# Disassemble a fixed-seed workload and diff its trace record against the
# committed baseline. Count metrics (iterations, corrections, degradations,
# error counters) are deterministic and gate tightly; wall-clock gets a
# generous ratio so the gate survives slow CI machines. Regenerate the
# baseline after an intentional pipeline change with:
#   cargo run --release --bin metadis -- gen -o /tmp/ci.elf --seed 42 --functions 16
#   cargo run --release --bin metadis -- disasm /tmp/ci.elf --trace-json tests/data/ci_baseline_trace.json
TD_TMP="$(mktemp -d)"
trap 'rm -rf "$TD_TMP"' EXIT
cargo run --release --offline --bin metadis -- \
  gen -o "$TD_TMP/ci.elf" --seed 42 --functions 16
cargo run --release --offline --bin metadis -- \
  disasm "$TD_TMP/ci.elf" --trace-json "$TD_TMP/trace.json"
cargo run --release --offline --bin metadis -- \
  trace-diff tests/data/ci_baseline_trace.json "$TD_TMP/trace.json" \
  --max-wall-ratio 100

echo "== bench-check perf gate"
# QUICK throughput run diffed against the committed tests/data/bench/
# baseline plus the serve load/fault-injection gate (zero-crash, live
# /healthz, two-sided shedding under 2x overload, p99 ceiling) — exit 5 on
# regression; also asserts the <5% telemetry-overhead budget inside the
# throughput bench itself.
./scripts/bench-check.sh

echo "== telemetry artifacts"
# Re-run the fixed workload with the full telemetry surface on and leave
# the outputs in artifacts/ for the workflow to upload: the --metrics
# table, the structured log stream, and the trace record.
mkdir -p artifacts
cargo run --release --offline --bin metadis -- \
  disasm "$TD_TMP/ci.elf" --metrics --log artifacts/ci-run.log \
  --trace-json artifacts/ci-trace.json > artifacts/ci-metrics.txt
cp "$TD_TMP/trace.json" artifacts/ci-trace-gate.json 2>/dev/null || true

echo "== series-history soak snapshot"
# Short live-serve soak with a fast sampler tick: discover the ephemeral
# port from the structured 'listening' log event, drive a few requests
# through the repo's own scrape client, then save the rolling
# /debug/metrics/history ring and one `metadis top --once` frame as
# artifacts. A file dropped into the watch dir satisfies --max-requests
# and lets the server drain and exit cleanly.
SOAK_WATCH="$TD_TMP/soak-watch"
SOAK_LOG="$TD_TMP/soak.log"
mkdir -p "$SOAK_WATCH"
cargo run --release --offline --bin metadis -- \
  gen -o "$TD_TMP/soak.elf" --seed 43 --functions 8
cargo run --release --offline --bin metadis -- \
  serve --watch "$SOAK_WATCH" --max-requests 1 --poll-ms 20 \
  --series-interval-ms 50 --log "$SOAK_LOG" >/dev/null &
SOAK_PID=$!
ADDR=""
for _ in $(seq 1 200); do
  # the backgrounded server may not have created its log yet; skipping
  # the read keeps sed's ENOENT from tripping set -e/pipefail
  if [[ -f "$SOAK_LOG" ]]; then
    ADDR="$(sed -n 's/.*"msg":"listening".*"addr":"\([^"]*\)".*/\1/p' "$SOAK_LOG" | head -n1)"
  fi
  [[ -n "$ADDR" ]] && break
  sleep 0.05
done
if [[ -z "$ADDR" ]]; then
  echo "ci: soak server never logged its listening address" >&2
  kill "$SOAK_PID" 2>/dev/null || true
  exit 1
fi
for _ in 1 2 3; do
  cargo run --release --offline --bin metadis -- \
    scrape "$ADDR" --path "/analyze?path=$TD_TMP/soak.elf" >/dev/null
done
# one failing request so tail-based retention has an anomaly to keep (the
# 422 makes scrape exit non-zero by design — that is the point)
cargo run --release --offline --bin metadis -- \
  scrape "$ADDR" --path "/analyze?path=$TD_TMP/does-not-exist.elf" >/dev/null 2>&1 || true
sleep 0.3  # ≥2 sampler ticks at 50ms
cargo run --release --offline --bin metadis -- \
  scrape "$ADDR" --path /debug/metrics/history > artifacts/ci-series-history.json
cargo run --release --offline --bin metadis -- \
  top "$ADDR" --once > artifacts/ci-top.txt
grep -q '"schema":"metadis.series.v1"' artifacts/ci-series-history.json || {
  echo "ci: history snapshot is not a metadis.series.v1 document" >&2
  kill "$SOAK_PID" 2>/dev/null || true
  exit 1
}

echo "== forensics support bundle"
# Snapshot the live instance's whole forensic surface — /metrics with
# exemplars, the history ring, the retention index, and every retained
# metadis.request.v1 bundle — exactly as an operator would during an
# incident. The workflow uploads artifacts/ci-forensics even when the
# gate fails, so a red run still ships its own diagnosis.
cargo run --release --offline --bin metadis -- \
  forensics "$ADDR" -o artifacts/ci-forensics
grep -q '"schema":"metadis.request.v1"' artifacts/ci-forensics/request-*.json || {
  echo "ci: forensics bundle carried no metadis.request.v1 record" >&2
  kill "$SOAK_PID" 2>/dev/null || true
  exit 1
}
grep -q '# {req_id="' artifacts/ci-forensics/metrics.prom || {
  echo "ci: forensics /metrics snapshot carried no exemplars" >&2
  kill "$SOAK_PID" 2>/dev/null || true
  exit 1
}
cp "$TD_TMP/soak.elf" "$SOAK_WATCH/done.elf"
wait "$SOAK_PID"

echo "== flight-recorder profile artifacts"
# Profile the same seed corpus with the flight recorder on and upload both
# views of the run: the Chrome trace-event JSON (loadable in Perfetto /
# chrome://tracing) and the critical-path report. One binary runs on one
# thread, so --threads 4 must give the same single-lane trace as 1.
cargo run --release --offline --bin metadis -- \
  profile "$TD_TMP/ci.elf" --threads 4 \
  --chrome-trace artifacts/ci-profile-trace.json \
  --profile-summary > artifacts/ci-profile-summary.txt

echo "CI gate passed."
