#!/usr/bin/env bash
# Tier-1 test suite under AddressSanitizer.
#
# The simulator runs the same coroutine strands release builds ship: every
# stack switch is annotated for ASan (sim/engine.cpp), so exceptions thrown
# on coroutine stacks, pooled-stack reuse and fake stacks are all tracked.
# The per-backend suites (ctest -L backend:parallel) also run those
# coroutines on parallel workers. Benchmarks and examples are skipped: they
# add nothing to the memory-safety surface and triple the build time.
#
#   $ scripts/check_asan.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-asan}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDACC_SANITIZE=address \
  -DDACC_BUILD_BENCHMARKS=OFF \
  -DDACC_BUILD_EXAMPLES=OFF
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
