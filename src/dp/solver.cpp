#include "dp/solver.hpp"

#include "dp/level_loop.hpp"
#include "faultsim/injector.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

namespace {

/// Shared per-solve context so the three solvers differ only in their
/// iteration strategy.
struct SolveContext {
  MixedRadix radix;
  ConfigSet configs;
  DpResult result;

  SolveContext(const DpProblem& problem, const SolveOptions& options)
      : radix(problem.radix()),
        configs(problem.counts, problem.weights, problem.capacity, radix) {
    problem.validate();
    // Solvers keep coordinates in fixed stack buffers inside hot loops.
    PCMAX_EXPECTS(radix.dims() <= 64);
    faultsim::check_host_alloc(radix.size() * sizeof(std::int32_t));
    result.table.assign(radix.size(), kInfeasible);
    result.table[0] = 0;
    if (options.collect_deps) result.deps.assign(radix.size(), 0);
    result.config_count = configs.size();
  }

  void finish() {
    result.opt = result.table.back();
    faultsim::maybe_corrupt_table(result.table, result.opt);
  }
};

}  // namespace

std::int32_t solve_cell(const ConfigSet& configs,
                        std::span<const std::int64_t> v, std::int64_t level,
                        std::uint64_t id,
                        std::span<const std::int32_t> table,
                        std::uint32_t* dep_count) noexcept {
  std::int32_t best = kInfeasible;
  std::uint32_t deps = 0;
  const bool exact_deps = dep_count != nullptr;
  const std::int32_t floor_best =
      level_floor_best(level, configs.max_level_drop());
  configs.for_each_fitting(
      v, level, [&](std::size_t c) noexcept {
        ++deps;
        const std::int32_t sub = table[id - configs.delta(c)];
        if (sub < best) best = sub;
        return exact_deps || best > floor_best;
      });
  if (dep_count != nullptr) *dep_count = deps;
  return best == kInfeasible ? kInfeasible : best + 1;
}

DpResult ReferenceSolver::solve(const DpProblem& problem,
                                const SolveOptions& options) const {
  SolveContext ctx(problem, options);
  const LevelBuckets buckets(ctx.radix);
  std::vector<std::int64_t> v(ctx.radix.dims());
  for (std::int64_t level = 1; level < buckets.levels(); ++level) {
    for (const std::uint64_t id : buckets.cells_at(level)) {
      ctx.radix.unflatten(id, v);
      std::uint32_t* deps =
          options.collect_deps ? &ctx.result.deps[id] : nullptr;
      ctx.result.table[id] =
          solve_cell(ctx.configs, v, level, id, ctx.result.table, deps);
    }
  }
  if (options.collect_deps && !ctx.result.deps.empty()) {
    // The origin's dependency count (configs fitting the zero vector) is
    // zero by construction since configurations are non-empty.
    ctx.result.deps[0] = 0;
  }
  ctx.finish();
  return ctx.result;
}

DpResult LevelScanSolver::solve(const DpProblem& problem,
                                const SolveOptions& options) const {
  SolveContext ctx(problem, options);
  const auto size = ctx.radix.size();
  const std::int64_t levels = ctx.radix.max_level();
  const int threads = resolve_threads(options.num_threads);

  // Algorithm 2, lines 10-25: one sequential pass per anti-diagonal level,
  // each pass scanning the entire table in parallel.
  for (std::int64_t level = 1; level <= levels; ++level) {
#pragma omp parallel for num_threads(threads) schedule(static) \
    firstprivate(level)
    for (std::int64_t signed_id = 1;
         signed_id < static_cast<std::int64_t>(size); ++signed_id) {
      const auto id = static_cast<std::uint64_t>(signed_id);
      std::int64_t coords[64];
      std::span<std::int64_t> v(coords, ctx.radix.dims());
      ctx.radix.unflatten(id, v);
      std::int64_t d = 0;
      for (const auto x : v) d += x;
      if (d != level) continue;
      std::uint32_t* deps =
          options.collect_deps ? &ctx.result.deps[id] : nullptr;
      ctx.result.table[id] =
          solve_cell(ctx.configs, v, level, id, ctx.result.table, deps);
    }
  }
  ctx.finish();
  return ctx.result;
}

DpResult LevelBucketSolver::solve(const DpProblem& problem,
                                  const SolveOptions& options) const {
  SolveContext ctx(problem, options);
  const LevelBuckets buckets(ctx.radix);
  const int threads = resolve_threads(options.num_threads);
  const std::uint64_t configs = ctx.configs.size();

  for (std::int64_t level = 1; level < buckets.levels(); ++level) {
    const auto cells = buckets.cells_at(level);
    // Cells of a level ascend in row-major order, so each chunk divides
    // once for its first cell's coordinates and walks to the rest.
    for_each_chunk_in_level(
        cells.size(), 64, cells.size() * configs, threads,
        [&](std::uint64_t first, std::uint64_t last) {
          std::int64_t coords[64];
          std::span<std::int64_t> v(coords, ctx.radix.dims());
          ctx.radix.unflatten(cells[first], v);
          for (std::uint64_t i = first;;) {
            const std::uint64_t id = cells[i];
            std::uint32_t* deps =
                options.collect_deps ? &ctx.result.deps[id] : nullptr;
            ctx.result.table[id] = solve_cell(ctx.configs, v, level, id,
                                              ctx.result.table, deps);
            if (++i == last) break;
            ctx.radix.next_in_level(v);
          }
        });
  }
  ctx.finish();
  return ctx.result;
}

}  // namespace pcmax::dp
