#include "partition/block_solver.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "obs/session.hpp"
#include "util/rng.hpp"

namespace pcmax::partition {
namespace {

dp::DpProblem ptas_like_problem() {
  return dp::DpProblem{{2, 3, 1, 2}, {4, 5, 7, 11}, 16};
}

TEST(BlockedSolver, MatchesReferenceOnPtasProblem) {
  const auto p = ptas_like_problem();
  const auto ref = dp::ReferenceSolver().solve(p);
  for (std::size_t dims = 0; dims <= 4; ++dims) {
    const auto blocked = BlockedSolver(dims).solve(p);
    EXPECT_EQ(blocked.table, ref.table) << "partition dims " << dims;
    EXPECT_EQ(blocked.opt, ref.opt);
  }
}

TEST(BlockedSolver, DepsMatchReference) {
  const auto p = ptas_like_problem();
  dp::SolveOptions opt;
  opt.collect_deps = true;
  const auto ref = dp::ReferenceSolver().solve(p, opt);
  const auto blocked = BlockedSolver(3).solve(p, opt);
  EXPECT_EQ(blocked.deps, ref.deps);
}

// Wide enough that block-levels clear the DP threading policy's work floor,
// so multi-threaded solves really fan blocks out across a team.
TEST(BlockedSolver, AgreesAtExplicitThreadCountsOnWideTable) {
  const dp::DpProblem p{{8, 8, 8, 8}, {2, 3, 5, 7}, 20};
  const auto ref = dp::ReferenceSolver().solve(p);
  for (const std::size_t dims : {2, 4}) {
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "dims " << dims << " threads "
                                      << threads);
      obs::ObsSession session;
      dp::SolveOptions opt;
      opt.num_threads = threads;
      EXPECT_EQ(BlockedSolver(dims).solve(p, opt).table, ref.table);
      const auto parallel = session.metrics().counter("dp.levels.parallel");
      if (threads == 1)
        EXPECT_EQ(parallel, 0u);
      else
        EXPECT_GT(parallel, 0u);
    }
  }
}

TEST(BlockedSolver, NameEncodesPartitionDims) {
  EXPECT_EQ(BlockedSolver(3).name(), "blocked-dim3");
  EXPECT_EQ(BlockedSolver(9).name(), "blocked-dim9");
}

TEST(BlockedSolver, HandlesInfeasibleClasses) {
  const dp::DpProblem p{{1, 1}, {4, 20}, 16};
  const auto ref = dp::ReferenceSolver().solve(p);
  const auto blocked = BlockedSolver(2).solve(p);
  EXPECT_EQ(blocked.table, ref.table);
  EXPECT_EQ(blocked.opt, dp::kInfeasible);
}

TEST(BlockedSolver, SingleCellTable) {
  const dp::DpProblem p{{0}, {1}, 1};
  const auto r = BlockedSolver(1).solve(p);
  EXPECT_EQ(r.opt, 0);
}

// Observer wiring: the callbacks must see every cell exactly once, in
// dependency-safe order.
class RecordingObserver final : public BlockObserver {
 public:
  void on_solve_begin(const BlockedLayout& layout,
                      std::uint64_t config_count) override {
    layout_cells_ = layout.table_radix().size();
    config_count_ = config_count;
    block_level_of_.assign(layout.block_count(), -1);
    const dp::LevelBuckets buckets(layout.grid());
    for (std::int64_t l = 0; l < buckets.levels(); ++l)
      for (const auto b : buckets.cells_at(l))
        block_level_of_[b] = l;
  }
  void on_block_level(std::int64_t level,
                      std::span<const std::uint64_t> blocks) override {
    EXPECT_EQ(level, last_block_level_ + 1) << "levels must be sequential";
    last_block_level_ = level;
    for (const auto b : blocks) EXPECT_EQ(block_level_of_[b], level);
  }
  void on_in_block_level(std::uint64_t block_id, std::int64_t in_level,
                         std::span<const CellStat> cells) override {
    (void)block_id;
    (void)in_level;
    cells_seen_ += cells.size();
    for (const auto& c : cells) {
      total_deps_ += c.deps;
      EXPECT_GE(c.candidates, 1u);
      EXPECT_LE(c.deps, config_count_);
    }
  }
  void on_solve_end() override { ended_ = true; }

  std::uint64_t layout_cells_ = 0;
  std::uint64_t config_count_ = 0;
  std::vector<std::int64_t> block_level_of_;
  std::int64_t last_block_level_ = -1;
  std::uint64_t cells_seen_ = 0;
  std::uint64_t total_deps_ = 0;
  bool ended_ = false;
};

TEST(BlockedSolver, ObserverSeesEveryCellOnce) {
  const auto p = ptas_like_problem();
  RecordingObserver obs;
  const auto r = BlockedSolver(3, &obs).solve(p);
  EXPECT_TRUE(obs.ended_);
  EXPECT_EQ(obs.cells_seen_, p.table_size());
  // Total deps reported to the observer equal the sum of per-cell deps.
  dp::SolveOptions opt;
  opt.collect_deps = true;
  const auto ref = dp::ReferenceSolver().solve(p, opt);
  const auto expected = std::accumulate(ref.deps.begin(), ref.deps.end(),
                                        std::uint64_t{0});
  EXPECT_EQ(obs.total_deps_, expected);
  EXPECT_EQ(r.opt, ref.opt);
}

struct RandomCase {
  std::uint64_t seed;
  std::size_t partition_dims;
};

class BlockedSolverRandom : public ::testing::TestWithParam<RandomCase> {};

TEST_P(BlockedSolverRandom, MatchesReference) {
  util::Rng rng(GetParam().seed);
  dp::DpProblem p;
  const auto dims = static_cast<std::size_t>(rng.uniform(1, 7));
  for (std::size_t i = 0; i < dims; ++i) {
    p.counts.push_back(rng.uniform(0, 4));
    p.weights.push_back(rng.uniform(1, 9));
  }
  p.capacity = rng.uniform(6, 22);
  const auto ref = dp::ReferenceSolver().solve(p);
  const auto blocked = BlockedSolver(GetParam().partition_dims).solve(p);
  EXPECT_EQ(blocked.table, ref.table);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedSolverRandom,
    ::testing::Values(RandomCase{21, 1}, RandomCase{22, 2}, RandomCase{23, 3},
                      RandomCase{24, 4}, RandomCase{25, 5}, RandomCase{26, 6},
                      RandomCase{27, 7}, RandomCase{28, 8}, RandomCase{29, 9},
                      RandomCase{30, 3}, RandomCase{31, 5},
                      RandomCase{32, 7}));

}  // namespace
}  // namespace pcmax::partition
