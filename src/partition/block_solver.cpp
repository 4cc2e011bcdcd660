#include "partition/block_solver.hpp"

#include <vector>

#include "dp/config.hpp"
#include "dp/level_loop.hpp"
#include "faultsim/injector.hpp"
#include "partition/divisor.hpp"
#include "util/contracts.hpp"

namespace pcmax::partition {

namespace {

/// Per-block worker: fills every cell of `block_id`, walking in-block
/// anti-diagonal levels in order. The blocked table is shared but each block
/// writes only its own contiguous region; reads may touch earlier blocks,
/// which are complete because block-levels are processed in order.
class BlockWorker {
 public:
  BlockWorker(const BlockedLayout& layout,
              const dp::ConfigSet& configs,
              const dp::LevelBuckets& in_block_buckets,
              std::span<std::int32_t> blocked_table,
              std::span<std::uint32_t> deps_row_major, BlockObserver* observer)
      : layout_(layout),
        configs_(configs),
        in_block_buckets_(in_block_buckets),
        blocked_table_(blocked_table),
        deps_row_major_(deps_row_major),
        observer_(observer) {}

  void run(std::uint64_t block_id) {
    const auto dims = layout_.table_radix().dims();
    std::int64_t bcoords[64], lcoords[64], cell[64], sub[64];
    layout_.grid().unflatten(block_id,
                             std::span<std::int64_t>(bcoords, dims));
    const auto& bs = layout_.block().extents();
    const std::uint64_t base = block_id * layout_.cells_per_block();

    std::vector<BlockObserver::CellStat> stats;
    for (std::int64_t lvl = 0; lvl < in_block_buckets_.levels(); ++lvl) {
      const auto locals = in_block_buckets_.cells_at(lvl);
      if (observer_ != nullptr) {
        stats.clear();
        stats.reserve(locals.size());
      }
      for (const auto local_id : locals) {
        layout_.block().unflatten(local_id,
                                  std::span<std::int64_t>(lcoords, dims));
        std::uint64_t candidates = 1;
        for (std::size_t i = 0; i < dims; ++i) {
          cell[i] = bcoords[i] * bs[i] + lcoords[i];
          candidates *= static_cast<std::uint64_t>(cell[i]) + 1;
        }
        const std::span<const std::int64_t> v(cell, dims);
        std::int64_t level = 0;
        for (std::size_t i = 0; i < dims; ++i) level += cell[i];

        std::uint32_t dep_count = 0;
        std::int32_t best = dp::kInfeasible;
        if (base + local_id != 0) {  // origin is pinned to 0
          // Dependency counts feed the deps table and the observer's cost
          // model, so the early exit is only legal when neither is active.
          const bool exact = !deps_row_major_.empty() || observer_ != nullptr;
          const std::int32_t floor_best =
              dp::level_floor_best(level, configs_.max_level_drop());
          configs_.for_each_fitting(v, level, [&](std::size_t c) {
            ++dep_count;
            const auto s = configs_.config(c);
            for (std::size_t i = 0; i < dims; ++i) sub[i] = cell[i] - s[i];
            const std::int32_t val = blocked_table_[layout_.blocked_offset(
                std::span<const std::int64_t>(sub, dims))];
            if (val < best) best = val;
            return exact || best > floor_best;
          });
          blocked_table_[base + local_id] =
              best == dp::kInfeasible ? dp::kInfeasible : best + 1;
        }
        if (!deps_row_major_.empty())
          deps_row_major_[layout_.table_radix().flatten(v)] = dep_count;
        if (observer_ != nullptr) stats.push_back({candidates, dep_count});
      }
      if (observer_ != nullptr)
        observer_->on_in_block_level(block_id, lvl, stats);
    }
  }

 private:
  const BlockedLayout& layout_;
  const dp::ConfigSet& configs_;
  const dp::LevelBuckets& in_block_buckets_;
  std::span<std::int32_t> blocked_table_;
  std::span<std::uint32_t> deps_row_major_;
  BlockObserver* observer_;
};

}  // namespace

dp::DpResult BlockedSolver::solve(const dp::DpProblem& problem,
                                  const dp::SolveOptions& options) const {
  problem.validate();
  const dp::MixedRadix radix = problem.radix();
  PCMAX_EXPECTS(radix.dims() <= 64);

  const BlockedLayout layout(
      radix, compute_divisor(radix.extents(), partition_dims_));
  const dp::ConfigSet configs(problem.counts, problem.weights,
                              problem.capacity, radix);
  const dp::LevelBuckets block_buckets(layout.grid());
  const dp::LevelBuckets in_block_buckets(layout.block());

  dp::DpResult result;
  result.config_count = configs.size();
  faultsim::check_host_alloc(2 * radix.size() * sizeof(std::int32_t));
  std::vector<std::int32_t> blocked(radix.size(), dp::kInfeasible);
  blocked[0] = 0;
  if (options.collect_deps || observer_ != nullptr)
    result.deps.assign(radix.size(), 0);

  if (observer_ != nullptr) observer_->on_solve_begin(layout, configs.size());

  BlockWorker worker(layout, configs, in_block_buckets, blocked, result.deps,
                     observer_);
  const int threads = dp::resolve_threads(options.num_threads);
  const std::uint64_t block_work =
      layout.cells_per_block() * configs.size();

  for (std::int64_t lvl = 0; lvl < block_buckets.levels(); ++lvl) {
    const auto blocks = block_buckets.cells_at(lvl);
    if (observer_ != nullptr) observer_->on_block_level(lvl, blocks);
    // The observer sees blocks in deterministic order, so observed runs are
    // sequential; unobserved runs fan blocks of a level out across threads.
    if (observer_ != nullptr) {
      for (const auto block_id : blocks) worker.run(block_id);
    } else {
      dp::for_each_in_level(blocks.size(), 1, blocks.size() * block_work,
                            threads,
                            [&](std::uint64_t i) { worker.run(blocks[i]); });
    }
  }

  if (observer_ != nullptr) observer_->on_solve_end();

  // Convert the blocked table back to row-major for the caller.
  result.table.assign(radix.size(), dp::kInfeasible);
  std::int64_t coords[64];
  std::span<std::int64_t> c(coords, radix.dims());
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    radix.unflatten(id, c);
    result.table[id] = blocked[layout.blocked_offset(c)];
  }
  result.opt = result.table.back();
  faultsim::maybe_corrupt_table(result.table, result.opt);
  if (!options.collect_deps) result.deps.clear();
  return result;
}

}  // namespace pcmax::partition
