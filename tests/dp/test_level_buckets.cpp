#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "dp/mixed_radix.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {
namespace {

TEST(LevelBuckets, CoversEveryCellExactlyOnce) {
  const MixedRadix r({4, 3, 5});
  const LevelBuckets b(r);
  std::set<std::uint64_t> seen;
  std::uint64_t total = 0;
  for (std::int64_t l = 0; l < b.levels(); ++l) {
    for (const auto id : b.cells_at(l)) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate cell " << id;
      ++total;
    }
  }
  EXPECT_EQ(total, r.size());
}

TEST(LevelBuckets, EveryCellInItsLevel) {
  const MixedRadix r({3, 4, 2, 3});
  const LevelBuckets b(r);
  for (std::int64_t l = 0; l < b.levels(); ++l)
    for (const auto id : b.cells_at(l)) EXPECT_EQ(r.level_of(id), l);
}

TEST(LevelBuckets, LevelsCountMatchesMaxLevel) {
  const MixedRadix r({6, 6, 6});
  const LevelBuckets b(r);
  EXPECT_EQ(b.levels(), r.max_level() + 1);
}

TEST(LevelBuckets, FirstAndLastLevelsSingleton) {
  const MixedRadix r({4, 4, 4});
  const LevelBuckets b(r);
  ASSERT_EQ(b.count_at(0), 1u);
  EXPECT_EQ(b.cells_at(0)[0], 0u);
  ASSERT_EQ(b.count_at(b.levels() - 1), 1u);
  EXPECT_EQ(b.cells_at(b.levels() - 1)[0], r.size() - 1);
}

TEST(LevelBuckets, WithinLevelSortedAscending) {
  const MixedRadix r({5, 4, 3});
  const LevelBuckets b(r);
  for (std::int64_t l = 0; l < b.levels(); ++l) {
    const auto cells = b.cells_at(l);
    EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end()));
  }
}

TEST(LevelBuckets, TwoDimLevelSizesAreTriangular) {
  // For a (n x n) table, level l has min(l, 2(n-1)-l) + 1 cells.
  const std::int64_t n = 7;
  const MixedRadix r({n, n});
  const LevelBuckets b(r);
  for (std::int64_t l = 0; l < b.levels(); ++l) {
    const std::int64_t expected = std::min(l, 2 * (n - 1) - l) + 1;
    EXPECT_EQ(b.count_at(l), static_cast<std::uint64_t>(expected));
  }
}

TEST(LevelBuckets, SingleCellTable) {
  const MixedRadix r({1, 1});
  const LevelBuckets b(r);
  EXPECT_EQ(b.levels(), 1);
  EXPECT_EQ(b.count_at(0), 1u);
}

TEST(LevelBuckets, RejectsOutOfRangeLevel) {
  const MixedRadix r({3, 3});
  const LevelBuckets b(r);
  EXPECT_THROW((void)b.cells_at(-1), util::contract_violation);
  EXPECT_THROW((void)b.cells_at(b.levels()), util::contract_violation);
}

TEST(LevelBuckets, NextInLevelWalksEachBucketInOrder) {
  // Extents of 1 (a class with no jobs) and a 1-D table included: the walk
  // must step over fixed coordinates and reproduce every bucket exactly.
  for (const auto& extents : std::vector<std::vector<std::int64_t>>{
           {5}, {4, 3, 5}, {3, 1, 4, 2}, {2, 2, 2, 2, 2, 2}, {1, 6, 1}}) {
    const MixedRadix r(extents);
    const LevelBuckets b(r);
    for (std::int64_t l = 0; l < b.levels(); ++l) {
      const auto cells = b.cells_at(l);
      std::vector<std::int64_t> v = r.unflatten(cells[0]);
      for (std::size_t i = 1; i < cells.size(); ++i) {
        r.next_in_level(v);
        EXPECT_EQ(r.flatten(v), cells[i]) << "level " << l << " cell " << i;
      }
      EXPECT_THROW(r.next_in_level(v), util::contract_violation)
          << "level " << l << " has no cell after its last";
    }
  }
}

}  // namespace
}  // namespace pcmax::dp
