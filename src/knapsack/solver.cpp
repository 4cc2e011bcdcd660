#include "knapsack/solver.hpp"

#include <algorithm>

#include "dp/fitset.hpp"
#include "dp/level_loop.hpp"
#include "partition/blocked_layout.hpp"
#include "partition/divisor.hpp"
#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::knapsack {

namespace {

/// The item catalogue's weight vectors as a FitSet, so the knapsack DP's
/// inner loop shares the SoA fits kernel with the scheduling DP engines.
dp::FitSet item_fitset(const KnapsackProblem& problem, std::size_t dims) {
  std::vector<std::int64_t> rows;
  rows.reserve(problem.items.size() * dims);
  for (const auto& item : problem.items)
    rows.insert(rows.end(), item.weights.begin(), item.weights.end());
  return dp::FitSet(rows, dims);
}

/// Computes one cell from already-filled predecessors, addressed through
/// `lookup` (row-major for the reference solver, blocked for the blocked
/// solver). Returns the cell's value. The max-reduction has no usable lower
/// bound, so every fitting item is visited (no early exit).
template <typename Lookup>
std::int64_t solve_cell(const KnapsackProblem& problem,
                        const dp::FitSet& fits,
                        std::span<const std::int64_t> c, Lookup&& lookup) {
  std::int64_t best = 0;  // taking nothing is always allowed
  std::int64_t level = 0;
  for (const auto x : c) level += x;
  fits.for_each_fitting(c, level, [&](std::size_t i) {
    const Item& item = problem.items[i];
    best = std::max(best, lookup(c, item) + item.value);
    return true;
  });
  return best;
}

}  // namespace

KnapsackResult solve_reference(const KnapsackProblem& problem) {
  problem.validate();
  const dp::MixedRadix radix = problem.radix();
  PCMAX_EXPECTS(radix.dims() <= 64);
  const dp::LevelBuckets buckets(radix);

  KnapsackResult result;
  result.table.assign(radix.size(), 0);
  const dp::FitSet fits = item_fitset(problem, radix.dims());

  std::int64_t coords[64];
  std::span<std::int64_t> c(coords, radix.dims());
  std::int64_t sub[64];
  const auto lookup = [&](std::span<const std::int64_t> cell,
                          const Item& item) {
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < cell.size(); ++i) {
      sub[i] = cell[i] - item.weights[i];
      id += static_cast<std::uint64_t>(sub[i]) * radix.strides()[i];
    }
    return result.table[id];
  };

  for (std::int64_t level = 1; level < buckets.levels(); ++level) {
    for (const auto id : buckets.cells_at(level)) {
      radix.unflatten(id, c);
      result.table[id] = solve_cell(problem, fits, c, lookup);
    }
  }
  result.best = result.table.back();
  return result;
}

KnapsackResult solve_blocked(const KnapsackProblem& problem,
                             std::size_t partition_dims, int num_threads) {
  problem.validate();
  const dp::MixedRadix radix = problem.radix();
  PCMAX_EXPECTS(radix.dims() <= 64);

  const partition::BlockedLayout layout(
      radix, partition::compute_divisor(radix.extents(), partition_dims));
  const dp::LevelBuckets block_buckets(layout.grid());
  const dp::LevelBuckets in_block_buckets(layout.block());

  std::vector<std::int64_t> blocked(radix.size(), 0);
  const dp::FitSet fits = item_fitset(problem, radix.dims());
  const int threads = dp::resolve_threads(num_threads);
  const std::uint64_t block_work =
      layout.cells_per_block() * problem.items.size();

  const auto run_block = [&](std::uint64_t block_id) {
    const auto dims = radix.dims();
    std::int64_t bcoords[64], lcoords[64], cell[64], sub[64];
    layout.grid().unflatten(block_id,
                            std::span<std::int64_t>(bcoords, dims));
    const auto& bs = layout.block().extents();
    const auto lookup = [&](std::span<const std::int64_t> cc,
                            const Item& item) {
      for (std::size_t i = 0; i < cc.size(); ++i)
        sub[i] = cc[i] - item.weights[i];
      return blocked[layout.blocked_offset(
          std::span<const std::int64_t>(sub, dims))];
    };
    const std::uint64_t base = block_id * layout.cells_per_block();
    for (std::int64_t lvl = 0; lvl < in_block_buckets.levels(); ++lvl) {
      for (const auto local_id : in_block_buckets.cells_at(lvl)) {
        layout.block().unflatten(local_id,
                                 std::span<std::int64_t>(lcoords, dims));
        for (std::size_t i = 0; i < dims; ++i)
          cell[i] = bcoords[i] * bs[i] + lcoords[i];
        blocked[base + local_id] = solve_cell(
            problem, fits, std::span<const std::int64_t>(cell, dims),
            lookup);
      }
    }
  };

  for (std::int64_t lvl = 0; lvl < block_buckets.levels(); ++lvl) {
    const auto blocks = block_buckets.cells_at(lvl);
    dp::for_each_in_level(blocks.size(), 1, blocks.size() * block_work,
                          threads,
                          [&](std::uint64_t i) { run_block(blocks[i]); });
  }

  KnapsackResult result;
  result.table.assign(radix.size(), 0);
  std::int64_t coords[64];
  std::span<std::int64_t> c(coords, radix.dims());
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    radix.unflatten(id, c);
    result.table[id] = blocked[layout.blocked_offset(c)];
  }
  result.best = result.table.back();
  return result;
}

KnapsackResult solve_gpu(const KnapsackProblem& problem,
                         gpusim::Device& device, std::size_t partition_dims,
                         int stream_count) {
  problem.validate();
  PCMAX_EXPECTS(stream_count >= 1);
  PCMAX_EXPECTS(stream_count <= device.spec().max_streams);
  const dp::MixedRadix radix = problem.radix();

  const partition::BlockedLayout layout(
      radix, partition::compute_divisor(radix.extents(), partition_dims));
  const dp::LevelBuckets block_buckets(layout.grid());
  const dp::LevelBuckets in_block_buckets(layout.block());

  // Device footprint: the blocked value table plus the item catalogue.
  const auto table_buf = device.allocate(radix.size() * 8);
  const auto items_buf =
      device.allocate(problem.items.size() * (radix.dims() + 1) * 8);

  // Charge kernels per (block, in-block level): one thread per cell, each
  // testing every item (direct-indexed lookups — knapsack needs no search
  // function, so the win over an unpartitioned kernel is layout locality
  // and stream concurrency, not search-scope reduction).
  const std::uint64_t dims = radix.dims();
  const std::uint64_t items = problem.items.size();
  for (std::int64_t lvl = 0; lvl < block_buckets.levels(); ++lvl) {
    if (lvl > 0) device.synchronize();
    const auto blocks = block_buckets.cells_at(lvl);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const int stream = static_cast<int>(
          i % static_cast<std::size_t>(stream_count));
      for (std::int64_t in_lvl = 0; in_lvl < in_block_buckets.levels();
           ++in_lvl) {
        const std::uint64_t cells = in_block_buckets.count_at(in_lvl);
        if (cells == 0) continue;
        gpusim::WorkEstimate w;
        w.threads = cells;
        w.thread_ops = cells * items * (2 * dims + 2);
        // One in-block lookup per fitting item; blocked layout keeps them
        // within the contiguous block (coalesced by segment).
        w.transactions =
            util::ceil_div(cells * items * 8, std::uint64_t{128});
        device.launch_estimated(stream, "KnapsackLevel", w);
      }
    }
  }
  device.synchronize();

  // Values come from the real blocked solve (bit-identical by construction).
  return solve_blocked(problem, partition_dims);
}

std::vector<std::int64_t> reconstruct_items(const KnapsackProblem& problem,
                                            const KnapsackResult& result) {
  problem.validate();
  const dp::MixedRadix radix = problem.radix();
  PCMAX_EXPECTS(result.table.size() == radix.size());

  std::vector<std::int64_t> counts(problem.items.size(), 0);
  std::vector<std::int64_t> c(radix.extents());
  for (auto& x : c) --x;  // full budget vector
  std::uint64_t id = radix.size() - 1;

  while (result.table[id] > 0) {
    bool advanced = false;
    for (std::size_t i = 0; i < problem.items.size(); ++i) {
      const Item& item = problem.items[i];
      bool fits = true;
      for (std::size_t j = 0; j < c.size(); ++j)
        if (item.weights[j] > c[j]) {
          fits = false;
          break;
        }
      if (!fits) continue;
      std::uint64_t sub_id = id;
      for (std::size_t j = 0; j < c.size(); ++j)
        sub_id -= static_cast<std::uint64_t>(item.weights[j]) *
                  radix.strides()[j];
      if (result.table[sub_id] + item.value != result.table[id]) continue;
      ++counts[i];
      for (std::size_t j = 0; j < c.size(); ++j) c[j] -= item.weights[j];
      id = sub_id;
      advanced = true;
      break;
    }
    PCMAX_ENSURES(advanced);
  }
  return counts;
}

}  // namespace pcmax::knapsack
