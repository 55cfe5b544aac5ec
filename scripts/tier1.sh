#!/usr/bin/env bash
# Tier-1 verification: the full test suite in the normal configuration,
# then the fuzz-smoke differential-oracle subset rebuilt and re-run
# under AddressSanitizer + UBSan (catches memory bugs the functional
# comparison alone would miss), then the sweep-labeled tests (thread
# pool + parallel sweep driver) rebuilt and re-run with 4 workers under
# ThreadSanitizer (keeps the shared-substrate thread-cleanliness pass
# honest).
#
# Usage: scripts/tier1.sh [build-dir] [asan-build-dir] [tsan-build-dir]
#
# The full-suite stage configures a Release tree, so it defaults to
# build-release/: the plain `cmake -B build -S .` tier-1 command keeps
# its own default-configured build/ tree.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-release}"
ASAN_BUILD="${2:-build-asan}"
TSAN_BUILD="${3:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: full suite (${BUILD}) =="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DENABLE_WERROR=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== tier-1: perf-smoke (tools/perfgate --check) =="
if [ "${REPLAY_SKIP_PERFGATE:-0}" = "1" ]; then
    echo "warn: REPLAY_SKIP_PERFGATE=1; skipping the performance gate"
else
    # Hard-fails on a >25% throughput regression against the
    # checked-in baseline, or on any sweep-digest mismatch
    # (nondeterminism).  Gated metrics: sweep insts/s, engine frames/s,
    # and — since the SoA slab IR — pass-level optimizer opt-uops/s
    # (explore the same datapath interactively with the BM_Opt* benches
    # in bench/bench_hotpath.cc), plus mmap trace-ingest MB/s (full
    # buffered/mmap/zlib table: bench/bench_trace_ingest).  The
    # checked-in baseline is the median of several runs, so the 25%
    # floor absorbs machine noise without hiding real regressions.
    # Skip with REPLAY_SKIP_PERFGATE=1 (e.g. on heavily loaded or
    # throttled machines).
    "$BUILD/tools/perfgate" --check \
        --baseline bench/BENCH_hotpath.baseline.json \
        --out "$BUILD/BENCH_hotpath.json"
fi

echo "== tier-1: clang-tidy over src/verify/static + changed files =="
if command -v clang-tidy >/dev/null 2>&1; then
    # Lint the static-verifier subsystem plus whatever C++ files the
    # current branch touches relative to the merge base with main.
    TIDY_FILES="$(ls src/verify/static/*.cc 2>/dev/null || true)"
    CHANGED="$(git diff --name-only --diff-filter=ACMR \
                   "$(git merge-base HEAD origin/main 2>/dev/null \
                      || git rev-parse HEAD~1 2>/dev/null \
                      || git rev-parse HEAD)" -- '*.cc' 2>/dev/null || true)"
    TIDY_FILES="$(printf '%s\n%s\n' "$TIDY_FILES" "$CHANGED" \
                  | sort -u | grep -v '^$' || true)"
    if [ -n "$TIDY_FILES" ]; then
        # shellcheck disable=SC2086
        clang-tidy -p "$BUILD" $TIDY_FILES
    fi
else
    echo "warn: clang-tidy unavailable on this host; skipping"
fi

echo "== tier-1: fuzz-smoke under ASan+UBSan (${ASAN_BUILD}) =="
cmake -B "$ASAN_BUILD" -S . -DCMAKE_BUILD_TYPE=Debug -DENABLE_SANITIZERS=ON
cmake --build "$ASAN_BUILD" -j "$JOBS" --target test_fuzz
ctest --test-dir "$ASAN_BUILD" --output-on-failure -L fuzz-smoke

echo "== tier-1: tracev3 corruption fuzz + round-trip under ASan+UBSan =="
if [ "${REPLAY_SKIP_TRACEV3:-0}" = "1" ]; then
    echo "warn: REPLAY_SKIP_TRACEV3=1; skipping the tracev3 stage"
else
    # v3 container battery re-run under ASan+UBSan: the corruption
    # matrix and the 500-iteration random-mutation fuzz smoke feed
    # deliberately damaged containers through the mmap and buffered
    # decode paths, exactly where a bounds bug would hide from the
    # functional checks; the round-trip tests pin recorded == live
    # stream digests for all 14 workloads, and the simulator must
    # complete on a chunk-damaged container's valid prefix.  Skip with
    # REPLAY_SKIP_TRACEV3=1 (the normal-config run in the full suite
    # above still covers the functional half).
    cmake --build "$ASAN_BUILD" -j "$JOBS" --target test_tracev3
    ctest --test-dir "$ASAN_BUILD" --output-on-failure -L tracev3
fi

echo "== tier-1: sweep tests under TSan, 4 workers (${TSAN_BUILD}) =="
if echo 'int main(){return 0;}' | \
   c++ -fsanitize=thread -x c++ - -o /tmp/tier1-tsan-probe 2>/dev/null \
   && /tmp/tier1-tsan-probe; then
    cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DENABLE_TSAN=ON
    cmake --build "$TSAN_BUILD" -j "$JOBS" --target test_sweep
    REPLAY_SIM_JOBS=4 ctest --test-dir "$TSAN_BUILD" \
        --output-on-failure -L sweep

    echo "== tier-1: tier-stress under TSan (${TSAN_BUILD}) =="
    if [ "${REPLAY_SKIP_TIER:-0}" = "1" ]; then
        echo "warn: REPLAY_SKIP_TIER=1; skipping the tier-stress stage"
    else
        # Background re-optimization battery: publish/acquire races,
        # epoch swap vs. pinned frames, cancel/shed hammering, and the
        # async==sync convergence checks, all under ThreadSanitizer.
        # Skip with REPLAY_SKIP_TIER=1 (e.g. on machines too slow for
        # the soak tests under TSan overhead).
        cmake --build "$TSAN_BUILD" -j "$JOBS" --target test_tier
        ctest --test-dir "$TSAN_BUILD" --output-on-failure -L tier-stress
    fi
else
    echo "warn: ThreadSanitizer unavailable on this host; skipping"
fi
rm -f /tmp/tier1-tsan-probe

echo "tier-1 PASS"
