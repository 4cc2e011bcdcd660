// One threading policy for the level-synchronous DP loops. Every solver
// that shares a level's independent items (cells of an anti-diagonal level,
// blocks of a block-level) across OpenMP threads goes through
// for_each_in_level or its chunked form for_each_chunk_in_level, so the
// decision "is this level worth a team?" is made in one place. Opening a team costs a wake-up and a barrier on every
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
/// dp.levels.parallel counter once per call; a level that opens a team
/// also records `threads` in the dp.levels.team_threads histogram.
[[nodiscard]] bool level_runs_inline(std::uint64_t count, std::uint64_t chunk,
                                     std::uint64_t work, int threads);

/// Splits [0, count) into chunks of `chunk` items and calls fn(first, last)
/// once per chunk: on the calling thread as one call fn(0, count) when
/// level_runs_inline says so, otherwise on a team of `threads` OpenMP
/// threads that take chunks dynamically. The items of one level must be
/// independent of each other.
template <typename Fn>
void for_each_chunk_in_level(std::uint64_t count, std::uint64_t chunk,
                             std::uint64_t work, int threads, Fn&& fn) {
  if (level_runs_inline(count, chunk, work, threads)) {
    if (count > 0) fn(std::uint64_t{0}, count);
    return;
  }
  const auto chunks = static_cast<std::int64_t>((count + chunk - 1) / chunk);
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::uint64_t first = static_cast<std::uint64_t>(c) * chunk;
    fn(first, first + chunk < count ? first + chunk : count);
  }
}

/// Calls fn(i) for every i in [0, count), chunked and scheduled as
/// for_each_chunk_in_level.
template <typename Fn>
void for_each_in_level(std::uint64_t count, std::uint64_t chunk,
                       std::uint64_t work, int threads, Fn&& fn) {
  for_each_chunk_in_level(count, chunk, work, threads,
                          [&](std::uint64_t first, std::uint64_t last) {
                            for (std::uint64_t i = first; i < last; ++i) fn(i);
                          });
}

}  // namespace pcmax::dp
