#include "dp/level_loop.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <vector>

#include "dp/solver.hpp"
#include "obs/session.hpp"

namespace pcmax::dp {
namespace {

/// Runs one level through for_each_in_level and reports whether any call
/// ran inside an OpenMP team, checking every index is visited exactly once.
bool ran_in_team(std::uint64_t count, std::uint64_t chunk, std::uint64_t work,
                 int threads) {
  std::vector<std::atomic<int>> visits(count);
  std::atomic<bool> in_team{false};
  for_each_in_level(count, chunk, work, threads, [&](std::uint64_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
    if (omp_in_parallel()) in_team.store(true, std::memory_order_relaxed);
  });
  for (std::uint64_t i = 0; i < count; ++i)
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  return in_team.load();
}

TEST(LevelLoop, ResolvesThreads) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(0), omp_get_max_threads());
  EXPECT_GE(resolve_threads(0), 1);
}

TEST(LevelLoop, OneChunkRunsInline) {
  // One chunk keeps one thread busy, however much work it holds.
  EXPECT_FALSE(ran_in_team(64, 64, 1u << 30, 4));
  EXPECT_FALSE(ran_in_team(1, 1, 1u << 30, 4));
  EXPECT_FALSE(ran_in_team(0, 64, 0, 4));
}

TEST(LevelLoop, WorkBelowFloorRunsInline) {
  EXPECT_FALSE(ran_in_team(1000, 64, kParallelWorkFloor - 1, 4));
  EXPECT_FALSE(ran_in_team(1000, 1, kParallelWorkFloor - 1, 4));
}

TEST(LevelLoop, OneThreadRunsInline) {
  EXPECT_FALSE(ran_in_team(1000, 64, kParallelWorkFloor * 8, 1));
}

TEST(LevelLoop, WideHeavyLevelOpensTeam) {
  EXPECT_TRUE(ran_in_team(65, 64, kParallelWorkFloor, 4));
  EXPECT_TRUE(ran_in_team(2, 1, kParallelWorkFloor, 2));
  EXPECT_TRUE(ran_in_team(1000, 64, kParallelWorkFloor * 8, 4));
}

TEST(LevelLoop, CountsEveryLevelOnce) {
  obs::ObsSession session;
  (void)ran_in_team(64, 64, 1u << 30, 4);
  (void)ran_in_team(10, 1, kParallelWorkFloor - 1, 4);
  (void)ran_in_team(1000, 64, kParallelWorkFloor, 4);
  EXPECT_EQ(session.metrics().counter("dp.levels.inline"), 2u);
  EXPECT_EQ(session.metrics().counter("dp.levels.parallel"), 1u);
}

TEST(LevelLoop, RecordsTeamSizeOfLevelsThatOpenTeams) {
  obs::ObsSession session;
  (void)ran_in_team(1000, 64, kParallelWorkFloor, 4);
  (void)ran_in_team(10, 1, kParallelWorkFloor, 2);
  (void)ran_in_team(10, 1, kParallelWorkFloor - 1, 4);  // inline: no sample
  std::uint64_t samples = 0;
  std::int64_t sum = 0;
  for (const auto& h : session.metrics().histograms()) {
    if (h.name != "dp.levels.team_threads") continue;
    samples = h.total;
    sum = h.sum;
  }
  EXPECT_EQ(samples, 2u);
  EXPECT_EQ(sum, 4 + 2);
}

/// A table wide enough that its middle levels exceed both the chunk and the
/// work floor, so multi-threaded solves really open teams.
DpProblem wide_problem() {
  return DpProblem{{8, 8, 8, 8}, {2, 3, 5, 7}, 20};
}

TEST(LevelLoop, WideProblemFillsTeams) {
  const DpProblem p = wide_problem();
  const DpResult ref = ReferenceSolver().solve(p);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    obs::ObsSession session;
    SolveOptions opt;
    opt.num_threads = threads;
    EXPECT_EQ(LevelBucketSolver().solve(p, opt).table, ref.table);
    const auto parallel = session.metrics().counter("dp.levels.parallel");
    const auto levels =
        parallel + session.metrics().counter("dp.levels.inline");
    EXPECT_EQ(levels, static_cast<std::uint64_t>(p.radix().max_level()));
    if (threads == 1)
      EXPECT_EQ(parallel, 0u);
    else
      EXPECT_GT(parallel, 0u);
  }
}

}  // namespace
}  // namespace pcmax::dp
