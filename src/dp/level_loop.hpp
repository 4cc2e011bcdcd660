// One threading policy for the level-synchronous DP loops. Every solver
// that shares a level's independent items (cells of an anti-diagonal level,
// blocks of a block-level) across OpenMP threads goes through
// for_each_in_level, so the decision "is this level worth a team?" is made
// in one place. Opening a team costs a wake-up and a barrier on every
// thread; a level of at most one scheduling chunk, or whose estimated work
// is below kParallelWorkFloor, runs on the calling thread instead. Which
// thread computes an item never changes its value, so tables are
// bit-identical at every thread count either way.
//
// LevelScanSolver does not use this: its full-table scan per level is the
// paper's OpenMP baseline and stays as the paper wrote it.
#pragma once

#include <cstdint>

namespace pcmax::dp {

/// Estimated work (items x rows each item tests: cells x configurations for
/// the scheduling DP, cells x items for the knapsack DP) below which a level
/// runs on the calling thread. Measured on a 4-vCPU Xeon against the floors
/// 0, 2048, 4096 and 8192 (docs/PERFORMANCE.md, "Threading policy"): 4096
/// is the largest that keeps the perfbench cpu-large throughput within run
/// noise of always opening a team (8192 cost about 10%, 32768 about 25%),
/// and it cuts the Tier-1 ctest -j4 wall from 39.5 s (chunk rule alone) to
/// 28 s.
inline constexpr std::uint64_t kParallelWorkFloor = 4096;

/// The thread count a solve runs with: `requested` when positive, otherwise
/// the OpenMP default (omp_get_max_threads()).
[[nodiscard]] int resolve_threads(int requested);

/// The policy itself: true when a level of `count` items, scheduled in
/// chunks of `chunk` items, with estimated `work`, runs on the calling
/// thread rather than a team of `threads`. Bumps the dp.levels.inline or
/// dp.levels.parallel counter once per call.
[[nodiscard]] bool level_runs_inline(std::uint64_t count, std::uint64_t chunk,
                                     std::uint64_t work, int threads);

/// Calls fn(i) for every i in [0, count): on the calling thread when
/// level_runs_inline says so, otherwise on a team of `threads` OpenMP
/// threads with dynamic scheduling in chunks of `chunk`. The calls of one
/// level must be independent of each other.
template <typename Fn>
void for_each_in_level(std::uint64_t count, std::uint64_t chunk,
                       std::uint64_t work, int threads, Fn&& fn) {
  if (level_runs_inline(count, chunk, work, threads)) {
    for (std::uint64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const auto n = static_cast<std::int64_t>(count);
  const auto chunk_size = static_cast<int>(chunk);
#pragma omp parallel for num_threads(threads) schedule(dynamic, chunk_size)
  for (std::int64_t i = 0; i < n; ++i) fn(static_cast<std::uint64_t>(i));
}

}  // namespace pcmax::dp
