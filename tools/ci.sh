#!/usr/bin/env bash
# CI entry point — three-job build matrix with per-job logs:
#
#   release   Release, -DXPUF_WERROR=ON, full ctest (incl. `-L lint`:
#             the semantic engine over the tree, the fixture suite
#             tests/test_lint_semantic, and .clang-tidy validation), then
#             an xpuf_cli smoke run of the README lifecycle (fabricate ->
#             enroll --out <dir> -> authenticate --model <dir>)
#   lint      xpuf_lint --format json artifact (bench_out/ci/
#             lint_report.json) gated by tools/check_lint_baseline.py:
#             zero violations, per-rule suppression counts within the
#             shrink-only budget in tools/lint_baseline.json
#   fanalyzer GCC -fanalyzer sweep of src/net/ + src/common/ (the two
#             subsystems driven by external state machines); any
#             -Wanalyzer- diagnostic besides the known-FP
#             uninitialized-value checker fails the job
#   bench     bench_scan_throughput A/B (scalar oracle vs batched core) and
#             bench_enroll_throughput A/B (materialized vs streaming
#             enrollment, incl. the fixed-memory RSS assertion); both
#             binaries assert bit-identity, the gate checks each timing
#             JSON and that the optimized side has not regressed —
#             tools/check_bench_regression.py)
#   store     bench_db_scale at CI scale (sharded enrollment store: binary
#             log enrollment, LRU-bounded authentication with the in-run
#             flat-RSS and zero-metrics-drift audits, cold-replay recovery,
#             compaction); the gate checks the timing JSON and that the
#             LRU-cached serve path has not regressed behind cold replay
#   auth      bench_auth_throughput at CI scale (batched screening vs the
#             serial reference walk, pooled issuance vs live screening —
#             both asserted bit-identical in-run, with the zero-drift and
#             flat-RSS audits in the exit code); gates: auth.*/db.mmap_*
#             counter schema and the screener's exact-path share
#             (--expect-auth) and both A/B timing pairs
#   metrics   one bench run with --metrics-out, then a JSON schema check of
#             the snapshot (tools/check_metrics_schema.py): counters/gauges/
#             histograms/spans shape, nonzero selection cost, nonzero replay
#             rejections from the re-seeded second authentication
#   service   bench_service_load over a faulty wire (exit code is the
#             zero-drift audit), net.* counter schema check (--expect-net),
#             the same bench at --threads 1 and --threads 4 with equal
#             fingerprint: lines (the lockstep driver's thread invariance
#             at bench scale), and tests/test_service under TSan
#   service-socket
#             bench_service_load --transport socket: the epoll event-loop
#             engine over 1000 concurrent localhost connections, reconciled
#             bit-for-bit against the lockstep oracle plus a starved-queue
#             overload phase (exit code is the audit); net.async.* schema
#             check (--expect-net-socket), lockstep-vs-socket timing gate,
#             and tests/test_async_service under TSan
#   e2e-smoke bench/e2e/run.py --smoke: the four end-to-end workloads
#             (onboard, serve_n10, serve_n2, auth_store) at about 1/50
#             scale, untraced and traced, with their correctness gates,
#             the socket-vs-lockstep oracle on the serve workloads and the
#             metric-name check against BENCHMARK.json (builds build-e2e/
#             with one compile job on first use)
#   simd-off  Release with -DXPUF_BATCH_SIMD=OFF: builds and runs
#             tests/test_linear, test_screening, test_streaming,
#             test_enrollment, test_rng, test_math, test_tester,
#             test_issuance_golden, test_chip, test_eval_golden,
#             test_attack, test_selection, test_threshold_adjust,
#             test_database, test_crc32, test_wire, test_stream_decoder and
#             test_store on the portable scalar kernels (the parity-word
#             tiles behind every scan, model prediction and attack corpus,
#             the streaming fit's X^T y, Gram and threshold/R^2 loops, the
#             screener's table pass and its exact path on parity_dots,
#             which pooled refills run too, the lazy CDF counts and their
#             erfc cut-offs, the lockstep device race, the slicing-by-8
#             CRC-32 under every frame and store record), the only path on
#             hosts without AVX2 and PCLMULQDQ
#   asan      ASan+UBSan RelWithDebInfo, full test suite
#   tsan      TSan RelWithDebInfo, parallel-layer tests
#             (tests/test_parallel.cpp hammers the pool with 1/2/8-lane
#             configurations, so TSan sees every synchronization path of
#             common/parallel.cpp and the staged-buffer commits in the
#             scan/attack/GEMM code) and tests/test_observability.cpp
#             (concurrent ServerDatabase issue/authenticate for distinct
#             devices, pooling off and on, across the store's locks)
#
# plus a clang-tidy pass (tools/tidy.sh — skips cleanly when LLVM is absent).
# Every job tees its output to bench_out/ci/<job>.log so a red matrix can be
# triaged without re-running.
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 2)"
logdir="bench_out/ci"
mkdir -p "${logdir}"

run_job() {
  local name="$1"
  shift
  echo "== ${name} =="
  if "$@" >"${logdir}/${name}.log" 2>&1; then
    echo "   ok (log: ${logdir}/${name}.log)"
  else
    echo "   FAILED — tail of ${logdir}/${name}.log:" >&2
    tail -n 40 "${logdir}/${name}.log" >&2
    return 1
  fi
}

# NOTE: each job chains with && — `set -e` is suspended inside functions
# called from an `if` condition, so a plain sequence would keep going (and
# e.g. run ctest on a half-built tree) after a failed build step.
release_job() {
  cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release -DXPUF_WERROR=ON &&
    cmake --build "${prefix}" -j "${jobs}" &&
    ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}" &&
    cli_smoke
}

# The README lifecycle through xpuf_cli: fabricate a lot, enroll one chip
# into a model store directory, authenticate the chip against it.
cli_smoke() {
  local work="${logdir}/cli_smoke"
  local cli="${prefix}/tools/xpuf_cli"
  rm -rf "${work}" && mkdir -p "${work}" &&
    "${cli}" fabricate --out "${work}/lot.csv" --chips 2 --pufs 4 &&
    "${cli}" enroll --lot "${work}/lot.csv" --chip 0 --train 1000 --trials 2000 \
      --eval 500 --out "${work}/model" &&
    "${cli}" authenticate --lot "${work}/lot.csv" --chip 0 --model "${work}/model" \
      --count 16
}

asan_job() {
  cmake -B "${prefix}-asan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DXPUF_SANITIZE=address,undefined \
    -DXPUF_WERROR=ON \
    -DXPUF_BUILD_BENCHMARKS=OFF \
    -DXPUF_BUILD_EXAMPLES=OFF &&
    cmake --build "${prefix}-asan" -j "${jobs}" &&
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}"
}

# The batch kernels' and the screening pass's scalar fallback, the CRC-32's
# slicing-by-8 walk on inputs of every length, and the store and wire
# codecs over it: the same suites as the release job, built without AVX2
# and PCLMULQDQ.
simd_off_job() {
  cmake -B "${prefix}-simd-off" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DXPUF_BATCH_SIMD=OFF \
    -DXPUF_WERROR=ON \
    -DXPUF_BUILD_BENCHMARKS=OFF \
    -DXPUF_BUILD_EXAMPLES=OFF &&
    cmake --build "${prefix}-simd-off" -j "${jobs}" \
      --target test_linear test_screening test_streaming test_enrollment test_rng test_math \
      test_tester test_issuance_golden test_chip test_eval_golden test_attack test_selection \
      test_threshold_adjust test_database test_crc32 test_wire test_stream_decoder test_store &&
    "${prefix}-simd-off/tests/test_linear" &&
    "${prefix}-simd-off/tests/test_screening" &&
    "${prefix}-simd-off/tests/test_streaming" &&
    "${prefix}-simd-off/tests/test_enrollment" &&
    "${prefix}-simd-off/tests/test_rng" &&
    "${prefix}-simd-off/tests/test_math" &&
    "${prefix}-simd-off/tests/test_tester" &&
    "${prefix}-simd-off/tests/test_issuance_golden" &&
    "${prefix}-simd-off/tests/test_chip" &&
    "${prefix}-simd-off/tests/test_eval_golden" &&
    "${prefix}-simd-off/tests/test_attack" &&
    "${prefix}-simd-off/tests/test_selection" &&
    "${prefix}-simd-off/tests/test_threshold_adjust" &&
    "${prefix}-simd-off/tests/test_database" &&
    "${prefix}-simd-off/tests/test_crc32" &&
    "${prefix}-simd-off/tests/test_wire" &&
    "${prefix}-simd-off/tests/test_stream_decoder" &&
    "${prefix}-simd-off/tests/test_store"
}

# End-to-end smoke of the benchmark workloads: run.py's exit code is every
# workload's correctness gate plus the socket-vs-lockstep oracle.
e2e_smoke_job() {
  if command -v python3 >/dev/null 2>&1; then
    python3 bench/e2e/run.py --smoke
  else
    echo "python3 absent; e2e smoke skipped"
  fi
}

tsan_configure() {
  cmake -B "${prefix}-tsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DXPUF_SANITIZE=thread \
    -DXPUF_WERROR=ON \
    -DXPUF_BUILD_BENCHMARKS=OFF \
    -DXPUF_BUILD_EXAMPLES=OFF
}

tsan_job() {
  tsan_configure &&
    cmake --build "${prefix}-tsan" -j "${jobs}" --target test_parallel test_observability &&
    "${prefix}-tsan/tests/test_parallel" &&
    "${prefix}-tsan/tests/test_observability"
}

# Service layer end-to-end: the Release load bench over a faulty wire (its
# exit code IS the zero-drift audit), the net.* schema check on its snapshot,
# the bench's fingerprint at one and four worker threads, and the engine test
# suite under TSan (shard workers + sharded counters).
service_job() {
  "${prefix}/bench/bench_service_load" \
    --devices 24 --threads 2 \
    --metrics-out "${logdir}/service_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py "${logdir}/service_metrics.json" --expect-net
    else
      echo "python3 absent; schema check skipped (snapshot at ${logdir}/service_metrics.json)"
    fi &&
    service_thread_invariance &&
    tsan_configure &&
    cmake --build "${prefix}-tsan" -j "${jobs}" --target test_service &&
    "${prefix}-tsan/tests/test_service"
}

# The lockstep driver shards on a fixed grid, so the faulty-wire run must
# print the same fingerprint at any worker-thread count.
service_thread_invariance() {
  local one four
  one="$("${prefix}/bench/bench_service_load" --threads 1 | grep '^fingerprint:')" &&
    four="$("${prefix}/bench/bench_service_load" --threads 4 | grep '^fingerprint:')" &&
    echo "--threads 1 ${one}" &&
    echo "--threads 4 ${four}" &&
    [ -n "${one}" ] && [ "${one}" = "${four}" ]
}

# Event-loop socket service end-to-end: the Release socket bench at the
# 1000-connection acceptance floor (its exit code IS the oracle
# reconciliation + zero-drift + overload audit), the net.async.* schema
# check on its snapshot, the lockstep-vs-socket timing gate, the same
# bench over Unix-domain sockets at 64 devices, and the async engine suite
# under TSan (epoll readiness + timer wheel + stream decoder).
service_socket_job() {
  "${prefix}/bench/bench_service_load" --transport socket --devices 1000 \
    --metrics-out "${logdir}/service_socket_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py \
        "${logdir}/service_socket_metrics.json" --expect-net-socket &&
        python3 tools/check_bench_regression.py \
          bench_out/service_socket_timing.json
    else
      echo "python3 absent; schema check skipped (snapshot at ${logdir}/service_socket_metrics.json)"
    fi &&
    # Unix-domain stream sockets take the same short-read exit; the exit
    # code is the oracle reconciliation, byte-conservation and overload
    # audit.
    "${prefix}/bench/bench_service_load" --transport socket --unix 1 \
      --devices 64 &&
    tsan_configure &&
    cmake --build "${prefix}-tsan" -j "${jobs}" --target test_async_service &&
    "${prefix}-tsan/tests/test_async_service"
}

# Scan-throughput A/B: scalar vs batched evaluation core on the acceptance
# workload. The binary itself asserts the two modes are bit-identical (and
# the timed mode thread-count-deterministic); the schema gate then checks
# the timing artifact and that batched hasn't regressed behind scalar.
# Enrollment throughput runs the same way at a CI-sized challenge count:
# the binary asserts streaming == materialized bit-identity and the
# fixed-memory RSS bound, the gate checks the timing artifact and that
# streaming hasn't regressed behind materialized.
bench_job() {
  "${prefix}/bench/bench_scan_throughput" --threads 1 &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_bench_regression.py bench_out/scan_throughput_timing.json
    else
      echo "python3 absent; timing check skipped (bench_out/scan_throughput_timing.json)"
    fi &&
    "${prefix}/bench/bench_enroll_throughput" --threads 1 --challenges 131072 &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_bench_regression.py bench_out/enroll_throughput_timing.json
    else
      echo "python3 absent; timing check skipped (bench_out/enroll_throughput_timing.json)"
    fi
}

# Enrollment-store scale bench at a CI-sized fleet. The binary itself is
# the crash-safety/accounting audit (flat RSS with the LRU at 1% of the
# fleet, cache/ledger/shard counter identities, cold-replay equivalence,
# compaction round-trip); the gate checks the timing artifact and that the
# cached serve path has not regressed behind uncached cold replay.
store_job() {
  "${prefix}/bench/bench_db_scale" --devices 4000 --auths 800 &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_bench_regression.py bench_out/db_scale_timing.json
    else
      echo "python3 absent; timing check skipped (bench_out/db_scale_timing.json)"
    fi
}

# Authentication hot path at CI scale. The binary's exit code IS the audit
# (bit-identical screening modes, pure pooled drains, zero metrics drift,
# flat RSS); the gates then check the auth.*/db.mmap_* counter schema, that
# at most 1e-3 of screened candidates took the exact path, and both A/B pairs (batched-screening, pooled-issue) for regressions. The
# acceptance-scale >= 3x pooled floor runs on the million-device fleet
# (BENCH_auth_throughput.json), not here — CI shares one noisy core.
auth_job() {
  "${prefix}/bench/bench_auth_throughput" --devices 4000 --auths 800 \
    --metrics-out "${logdir}/auth_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py "${logdir}/auth_metrics.json" \
        --expect-auth &&
        python3 tools/check_bench_regression.py bench_out/auth_throughput_timing.json
    else
      echo "python3 absent; gates skipped (bench_out/auth_throughput_timing.json)"
    fi
}

# Lint artifact + suppression-budget gate. The engine's exit code is folded
# into the python gate (which prints the offending findings); without
# python3 the raw exit code is the gate.
lint_job() {
  local status=0
  "${prefix}/tools/xpuf_lint" --root . --format json \
    --out "${logdir}/lint_report.json" || status=$?
  if command -v python3 >/dev/null 2>&1; then
    python3 tools/check_lint_baseline.py "${logdir}/lint_report.json" \
      tools/lint_baseline.json
  else
    echo "python3 absent; budget gate skipped (report at ${logdir}/lint_report.json)"
    [ "${status}" -eq 0 ]
  fi
}

# GCC static analyzer over the protocol and concurrency layers — the code
# paths driven by externally-supplied bytes and thread scheduling, where the
# analyzer's path-sensitive checks (leaks, use-after-free, infinite loops)
# pay off. -Wanalyzer-use-of-uninitialized-value is disabled: GCC 12 reports
# known false positives through libstdc++ string internals and the
# thread-pool lambda captures. Anything else fails the job.
fanalyzer_job() {
  local diags="${logdir}/fanalyzer_diagnostics.log"
  : >"${diags}"
  local tu
  for tu in src/net/*.cpp src/common/*.cpp; do
    echo "-- ${tu}"
    g++ -std=c++20 -Isrc -O1 -fanalyzer \
      -Wno-analyzer-use-of-uninitialized-value \
      -c -o /dev/null "${tu}" 2>>"${diags}" || {
      echo "fanalyzer: ${tu} failed to compile:" >&2
      tail -n 20 "${diags}" >&2
      return 1
    }
  done
  if grep -q -- "-Wanalyzer-" "${diags}"; then
    echo "fanalyzer: unexpected analyzer diagnostics:" >&2
    grep -- "-Wanalyzer-" "${diags}" >&2
    return 1
  fi
  echo "analyzer sweep clean (diagnostics log: ${diags})"
}

metrics_job() {
  "${prefix}/bench/bench_tabB_authentication" \
    --challenges 4000 --trials 1000 --chips 1 \
    --metrics-out "${logdir}/tabB_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py "${logdir}/tabB_metrics.json"
    else
      echo "python3 absent; schema check skipped (snapshot at ${logdir}/tabB_metrics.json)"
    fi
}

run_job release release_job
run_job lint lint_job
run_job fanalyzer fanalyzer_job
run_job bench bench_job
run_job store store_job
run_job auth auth_job
run_job metrics metrics_job
run_job service service_job
run_job service-socket service_socket_job
run_job e2e-smoke e2e_smoke_job
run_job simd-off simd_off_job
run_job asan asan_job
run_job tsan tsan_job
run_job tidy ./tools/tidy.sh "${prefix}-tidy"

echo
echo "CI OK (logs under ${logdir}/)"
