#include "knapsack/solver.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "obs/session.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace pcmax::knapsack {
namespace {

// Brute-force oracle: enumerate item multiplicity vectors up to the budget
// bound per dimension (small instances only).
std::int64_t brute_force(const KnapsackProblem& p) {
  // DFS over item counts.
  std::int64_t best = 0;
  std::vector<std::int64_t> remaining = p.budgets;
  const std::function<void(std::size_t, std::int64_t)> go =
      [&](std::size_t i, std::int64_t value) {
        best = std::max(best, value);
        if (i == p.items.size()) return;
        // take 0..max copies of item i
        go(i + 1, value);
        bool fits = true;
        for (std::size_t j = 0; j < remaining.size(); ++j)
          if (p.items[i].weights[j] > remaining[j]) fits = false;
        if (!fits) return;
        for (std::size_t j = 0; j < remaining.size(); ++j)
          remaining[j] -= p.items[i].weights[j];
        go(i, value + p.items[i].value);
        for (std::size_t j = 0; j < remaining.size(); ++j)
          remaining[j] += p.items[i].weights[j];
      };
  go(0, 0);
  return best;
}

KnapsackProblem small_problem() {
  KnapsackProblem p;
  p.budgets = {7, 5, 6};
  p.items = {
      {10, {3, 1, 2}},
      {7, {2, 2, 1}},
      {4, {1, 0, 2}},
      {3, {0, 1, 1}},
  };
  return p;
}

/// An item heavier than 65 534 in one dimension, which puts the FitSet on
/// its wide (int64_t) columns, with the budget just below the item's weight
/// (8: it never fits) or just above it (9: taking it wins).
KnapsackProblem heavy_item_problem(std::int64_t budget) {
  KnapsackProblem p;
  p.budgets = {budget, 2};
  p.items = {{9, {65535, 1}}, {4, {30000, 0}}, {3, {20000, 1}}};
  return p;
}

/// The inputs every agreement test runs on.
std::vector<KnapsackProblem> agreement_problems() {
  return {small_problem(), heavy_item_problem(65534),
          heavy_item_problem(65536)};
}

TEST(Knapsack, ReferenceMatchesBruteForce) {
  for (const auto& p : agreement_problems()) {
    SCOPED_TRACE(p.budgets[0]);
    EXPECT_EQ(solve_reference(p).best, brute_force(p));
  }
  EXPECT_EQ(solve_reference(heavy_item_problem(65534)).best, 8);
  EXPECT_EQ(solve_reference(heavy_item_problem(65536)).best, 9);
}

TEST(Knapsack, ZeroBudgetGivesZero) {
  KnapsackProblem p;
  p.budgets = {0, 0};
  p.items = {{5, {1, 0}}};
  EXPECT_EQ(solve_reference(p).best, 0);
}

TEST(Knapsack, SingleDimensionClassic) {
  // Classic coin-style: budget 10, items (value, weight): (6,4), (5,3).
  KnapsackProblem p;
  p.budgets = {10};
  p.items = {{6, {4}}, {5, {3}}};
  // best: 3x(5,3)=15 at weight 9? vs (6,4)x2 + (5,3)? 12+weight 8, +3 left
  // -> +5 = 17? weight 4+4+3=11 > 10. 1x4 + 2x3 = weight 10, value 16.
  EXPECT_EQ(solve_reference(p).best, 16);
}

TEST(Knapsack, TableIsMonotoneInBudgets) {
  const auto p = small_problem();
  const auto r = solve_reference(p);
  const auto radix = p.radix();
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    const auto c = radix.unflatten(id);
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (c[j] == 0) continue;
      auto smaller = c;
      --smaller[j];
      EXPECT_LE(r.table[radix.flatten(smaller)], r.table[id]);
    }
  }
}

TEST(Knapsack, BlockedMatchesReferenceAllPartitionDims) {
  for (const auto& p : agreement_problems()) {
    SCOPED_TRACE(p.budgets[0]);
    const auto ref = solve_reference(p);
    for (std::size_t dims = 0; dims <= 3; ++dims) {
      const auto blocked = solve_blocked(p, dims);
      EXPECT_EQ(blocked.table, ref.table) << "dims " << dims;
    }
  }
}

// Block-levels of this table hold up to 44 blocks of 256 cells, enough
// block-items x item-tests to clear the DP threading policy's work floor,
// so multi-threaded solves really fan blocks out across a team.
TEST(Knapsack, BlockedAgreesAtExplicitThreadCountsOnWideTable) {
  KnapsackProblem p;
  p.budgets = {15, 15, 15, 15};
  p.items = {{9, {3, 1, 2, 0}}, {7, {2, 2, 1, 1}}, {4, {1, 0, 2, 1}},
             {3, {0, 1, 1, 2}}, {5, {1, 2, 0, 1}}, {6, {2, 0, 1, 2}}};
  const auto ref = solve_reference(p);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    obs::ObsSession session;
    EXPECT_EQ(solve_blocked(p, 4, threads).table, ref.table);
    const auto parallel = session.metrics().counter("dp.levels.parallel");
    if (threads == 1)
      EXPECT_EQ(parallel, 0u);
    else
      EXPECT_GT(parallel, 0u);
  }
}

TEST(Knapsack, GpuEngineMatchesAndChargesTime) {
  const auto p = small_problem();
  const auto ref = solve_reference(p);
  gpusim::Device device(gpusim::DeviceSpec::k40());
  const auto gpu = solve_gpu(p, device, 2);
  EXPECT_EQ(gpu.table, ref.table);
  EXPECT_GT(device.now(), util::SimTime{});
  EXPECT_GT(device.stats().kernels, 0u);
}

TEST(Knapsack, ReconstructExplainsBestValue) {
  const auto p = small_problem();
  const auto r = solve_reference(p);
  const auto counts = reconstruct_items(p, r);
  ASSERT_EQ(counts.size(), p.items.size());
  std::int64_t value = 0;
  std::vector<std::int64_t> used(p.budgets.size(), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], 0);
    value += counts[i] * p.items[i].value;
    for (std::size_t j = 0; j < used.size(); ++j)
      used[j] += counts[i] * p.items[i].weights[j];
  }
  EXPECT_EQ(value, r.best);
  for (std::size_t j = 0; j < used.size(); ++j)
    EXPECT_LE(used[j], p.budgets[j]);
}

TEST(Knapsack, ValidationRejectsBadProblems) {
  KnapsackProblem p;
  p.budgets = {3};
  p.items = {{5, {0}}};  // free item
  EXPECT_THROW(p.validate(), util::contract_violation);
  p.items = {{0, {1}}};  // worthless item
  EXPECT_THROW(p.validate(), util::contract_violation);
  p.items = {{1, {1, 1}}};  // arity mismatch
  EXPECT_THROW(p.validate(), util::contract_violation);
  p.items.clear();
  EXPECT_THROW(p.validate(), util::contract_violation);
}

class KnapsackRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackRandom, AllSolversMatchBruteForce) {
  util::Rng rng(GetParam());
  KnapsackProblem p;
  const auto dims = static_cast<std::size_t>(rng.uniform(1, 4));
  for (std::size_t j = 0; j < dims; ++j)
    p.budgets.push_back(rng.uniform(0, 6));
  const auto n_items = static_cast<std::size_t>(rng.uniform(1, 5));
  for (std::size_t i = 0; i < n_items; ++i) {
    Item item;
    item.value = rng.uniform(1, 20);
    std::int64_t total = 0;
    for (std::size_t j = 0; j < dims; ++j) {
      item.weights.push_back(rng.uniform(0, 4));
      total += item.weights.back();
    }
    if (total == 0) item.weights[0] = 1;
    p.items.push_back(std::move(item));
  }

  const auto expected = brute_force(p);
  const auto ref = solve_reference(p);
  EXPECT_EQ(ref.best, expected);
  for (const std::size_t pd : {std::size_t{2}, std::size_t{5}})
    EXPECT_EQ(solve_blocked(p, pd).table, ref.table);
  // Reconstruction is valid on random instances too.
  const auto counts = reconstruct_items(p, ref);
  std::int64_t value = 0;
  for (std::size_t i = 0; i < counts.size(); ++i)
    value += counts[i] * p.items[i].value;
  EXPECT_EQ(value, ref.best);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnapsackRandom,
                         ::testing::Range<std::uint64_t>(600, 625));

}  // namespace
}  // namespace pcmax::knapsack
