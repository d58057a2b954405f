#!/usr/bin/env bash
# Tier-1 test suite under ThreadSanitizer.
#
# TSan is the proof vehicle for the parallel execution backend. The build
# runs the same coroutine strands release builds ship: each strand is a
# TSan fiber (sim/engine.cpp), so TSan follows every stack switch — also
# when a coroutine suspends on one parallel worker and resumes on another.
# Pass 1 runs the suite on coroutine strands with the default backend;
# passes 2 and 3 export DACC_SIM_BACKEND=parallel with a multi-thread worker
# pool, so the window barriers, staged inboxes, cross-shard wakes and
# coroutines hopping between workers all execute on genuinely concurrent
# threads. Benchmarks and examples are skipped: they add nothing to the
# thread-safety surface and triple the build time.
#
#   $ scripts/check_tsan.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-tsan}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDACC_SANITIZE=thread \
  -DDACC_BUILD_BENCHMARKS=OFF \
  -DDACC_BUILD_EXAMPLES=OFF
cmake --build "$build" -j "$(nproc)"

# Pass 1: default backend selection (coroutine strands, serial scheduler).
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Pass 2: the parallel scheduler with real worker threads — four shards,
# two workers, so shard execution and coroutine resumption cross OS threads
# even on small hosts.
DACC_SIM_BACKEND=parallel:4 DACC_SIM_PARALLEL_WORKERS=2 \
  ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Pass 3: the 10k-node scaling scenario with a wider pool — four workers
# over sixteen shards, so the horizon publishes, staged-inbox absorbs and
# null-message pushes all cross OS threads at scale.
DACC_SIM_PARALLEL_WORKERS=4 \
  ctest --test-dir "$build" --output-on-failure -R 'ParallelScale'
