// Differential test of the block-bitmask fits scan: FitSet::for_each_fitting
// against a naive row-at-a-time scan written here, over seeded random row
// sets of every size class around the 32-row block, cells at every level,
// and coordinates on both sides of the narrow/wide column boundary.
#include "dp/fitset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

namespace pcmax::dp {
namespace {

std::int64_t sum(const std::vector<std::int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

/// The reference: rows sorted by descending coordinate sum, ties in
/// original order, each tested dimension by dimension. The level-0 cell
/// visits nothing by contract, even an all-zero row.
std::vector<std::size_t> naive_fitting(const std::vector<std::int64_t>& rows,
                                       std::size_t dims,
                                       const std::vector<std::int64_t>& v) {
  const std::size_t n = sum(v) == 0 ? 0 : rows.size() / dims;
  std::vector<std::int64_t> drop(n, 0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t j = 0; j < dims; ++j) drop[r] += rows[r * dims + j];
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return drop[a] > drop[b];
                   });
  std::vector<std::size_t> out;
  for (const std::size_t r : order) {
    bool fits = true;
    for (std::size_t j = 0; j < dims; ++j)
      if (rows[r * dims + j] > v[j]) fits = false;
    if (fits) out.push_back(r);
  }
  return out;
}

/// `n` random rows of `dims` coordinates, each drawn from `values`.
struct Case {
  std::vector<std::int64_t> rows;
  std::size_t dims;
};

Case random_case(std::mt19937_64& rng, std::size_t n, std::size_t dims,
                 const std::vector<std::int64_t>& values) {
  Case c{{}, dims};
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  c.rows.resize(n * dims);
  for (auto& x : c.rows) x = values[pick(rng)];
  return c;
}

std::vector<std::int64_t> random_cell(std::mt19937_64& rng, const Case& c,
                                      const std::vector<std::int64_t>& values) {
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  std::vector<std::int64_t> v(c.dims);
  for (auto& x : v) x = values[pick(rng)];
  return v;
}

std::vector<std::size_t> kernel_fitting(const FitSet& fits,
                                        const std::vector<std::int64_t>& v) {
  std::vector<std::size_t> out;
  fits.for_each_fitting(v, sum(v), [&](std::size_t r) {
    out.push_back(r);
    return true;
  });
  return out;
}

/// The kernel's visits must equal the naive ones, and stopping after the
/// k-th visit must leave exactly the first k of them: for every k across
/// the first three blocks and the last visits, and every 29th in between
/// (which keeps the 300-row sets from costing quadratic time).
void expect_same_scan(const Case& c, const FitSet& fits,
                      const std::vector<std::int64_t>& v) {
  const auto expected = naive_fitting(c.rows, c.dims, v);
  ASSERT_EQ(kernel_fitting(fits, v), expected);
  for (std::size_t stop = 1; stop <= expected.size(); ++stop) {
    if (stop > 3 * FitSet::kBlock && stop + 2 < expected.size() &&
        stop % 29 != 0)
      continue;
    std::vector<std::size_t> prefix;
    fits.for_each_fitting(v, sum(v), [&](std::size_t r) {
      prefix.push_back(r);
      return prefix.size() < stop;
    });
    ASSERT_EQ(prefix, std::vector<std::size_t>(
                          expected.begin(),
                          expected.begin() + static_cast<std::ptrdiff_t>(stop)))
        << "stopped at visit " << stop;
  }
}

/// For every row set: a cell at every level next to a row's drop, random
/// cells, rows themselves as cells (an exact cap in every dimension) and
/// the top cell. Returns how many non-empty sets got wide columns.
int run_sweep(const std::vector<std::int64_t>& values, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  int wide_sets = 0;
  for (const std::size_t n : {0, 1, 31, 32, 33, 65, 300}) {
    for (std::size_t dims = 1; dims <= 12; ++dims) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " dims=" << dims);
      const Case c = random_case(rng, n, dims, values);
      const FitSet fits(c.rows, dims);
      EXPECT_EQ(fits.size(), n);
      const bool narrow =
          n == 0 || *std::max_element(c.rows.begin(), c.rows.end()) <= 0xFFFE;
      EXPECT_EQ(fits.narrow(), narrow);
      if (!narrow) ++wide_sets;

      // The skip offset begin_at_drop_[level] only changes at a row's
      // drop, so levels d - 1, d and d + 1 for every drop d reach every
      // offset, including offsets inside a 32-row block.
      std::vector<std::int64_t> drops;
      for (std::size_t r = 0; r < n; ++r) {
        std::int64_t d = 0;
        for (std::size_t j = 0; j < dims; ++j) d += c.rows[r * dims + j];
        drops.push_back(d);
      }
      std::sort(drops.begin(), drops.end());
      drops.erase(std::unique(drops.begin(), drops.end()), drops.end());
      for (const std::int64_t d : drops) {
        for (const std::int64_t level : {d - 1, d, d + 1}) {
          if (level < 0) continue;
          std::vector<std::int64_t> v(dims, level / static_cast<std::int64_t>(dims));
          v[0] += level % static_cast<std::int64_t>(dims);
          expect_same_scan(c, fits, v);
        }
      }
      for (std::size_t r = 0; r < std::min<std::size_t>(n, 40); ++r)
        expect_same_scan(c, fits,
                         std::vector<std::int64_t>(
                             c.rows.begin() + static_cast<std::ptrdiff_t>(r * dims),
                             c.rows.begin() +
                                 static_cast<std::ptrdiff_t>((r + 1) * dims)));
      for (int t = 0; t < 20; ++t)
        expect_same_scan(c, fits, random_cell(rng, c, values));
      // The top cell: every row fits and no dimension is tested, so only
      // the size mask keeps the padding rows out.
      if (n > 0) {
        std::vector<std::int64_t> top(dims, 0);
        for (std::size_t j = 0; j < dims; ++j) top[j] = fits.max_coord(j);
        if (sum(top) > 0) {
          EXPECT_EQ(kernel_fitting(fits, top).size(), n);
        }
        expect_same_scan(c, fits, top);
      }
    }
  }
  return wide_sets;
}

TEST(FitSet, MatchesNaiveScanOnSmallCoordinates) {
  EXPECT_EQ(run_sweep({0, 0, 1, 1, 2, 3, 4, 5}, 1), 0);
}

TEST(FitSet, MatchesNaiveScanAtTheNarrowLimit) {
  // 0xFFFE is the largest coordinate a uint16_t column holds.
  EXPECT_EQ(run_sweep({0, 1, 2, 0xFFFD, 0xFFFE}, 2), 0);
}

TEST(FitSet, MatchesNaiveScanJustPastTheNarrowLimit) {
  EXPECT_GT(run_sweep({0, 1, 2, 0xFFFE, 0xFFFF, 0x10000}, 3), 60);
}

TEST(FitSet, MatchesNaiveScanOnWideCoordinates) {
  const std::int64_t big = std::int64_t{1} << 40;
  EXPECT_GT(run_sweep({0, 1, 3, big - 1, big, big + 1}, 4), 60);
}

TEST(FitSet, ColumnTypeFollowsTheLargestCoordinate) {
  EXPECT_TRUE(FitSet(std::vector<std::int64_t>{0xFFFE, 1}, 2).narrow());
  EXPECT_FALSE(FitSet(std::vector<std::int64_t>{0xFFFF, 1}, 2).narrow());
  EXPECT_FALSE(FitSet(std::vector<std::int64_t>{1, 0x10000}, 2).narrow());
}

TEST(FitSet, EmptySetVisitsNothing) {
  const FitSet fits(std::vector<std::int64_t>{}, 3);
  std::size_t visits = 0;
  fits.for_each_fitting(std::vector<std::int64_t>{5, 5, 5}, 15,
                        [&](std::size_t) {
                          ++visits;
                          return true;
                        });
  EXPECT_EQ(visits, 0u);
}

}  // namespace
}  // namespace pcmax::dp
