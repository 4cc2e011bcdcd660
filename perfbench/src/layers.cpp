#include "layers.hpp"

#include <fstream>

#include "core/rounding.hpp"
#include "dp/config.hpp"
#include "dp/fitset.hpp"
#include "dp/mixed_radix.hpp"
#include "dp/reconstruct.hpp"
#include "eptas/sparsify.hpp"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The rounded DP problem of one probe, timed as its rounding layer.
struct RoundedProbe {
  pcmax::dp::DpProblem problem;
  bool has_long_jobs = false;
};

RoundedProbe round_probe(SpanRecorder& recorder,
                         const pcmax::Instance& instance, std::int64_t target,
                         Rounding rounding, std::int64_t k,
                         LayerCounts& counts) {
  RoundedProbe probe;
  if (rounding == Rounding::kClassic) {
    const ScopedSpan span(recorder, "core.rounding");
    const pcmax::RoundedInstance r =
        pcmax::round_instance(instance, target, k);
    probe.has_long_jobs = r.feasible && !r.class_index.empty();
    if (probe.has_long_jobs) probe.problem = pcmax::to_dp_problem(r);
    counts.rounding_classes += static_cast<double>(r.nonzero_dims());
  } else {
    const ScopedSpan span(recorder, "eptas.sparsify");
    const pcmax::eptas::SparsifiedInstance r =
        pcmax::eptas::sparsify_instance(instance, target, k);
    probe.has_long_jobs = r.feasible && !r.class_index.empty();
    if (probe.has_long_jobs) probe.problem = pcmax::eptas::to_dp_problem(r);
    counts.sparsify_classes += static_cast<double>(r.nonzero_dims());
  }
  return probe;
}

}  // namespace

std::string replay_probes(SpanRecorder& recorder,
                          const pcmax::Instance& instance,
                          const pcmax::PtasResult& result, Rounding rounding,
                          std::int64_t k, const pcmax::dp::DpSolver& solver,
                          LayerCounts& counts) {
  using namespace pcmax::dp;
  counts.solves += 1;
  counts.search_rounds += static_cast<double>(result.search_iterations);
  counts.probes += static_cast<double>(result.dp_calls.size());
  std::string failure;
  for (std::size_t i = 0; i < result.dp_calls.size(); ++i) {
    const pcmax::DpInvocation& call = result.dp_calls[i];
    if (call.cached) continue;  // answered without a table
    const RoundedProbe probe =
        round_probe(recorder, instance, call.target, rounding, k, counts);
    if (!probe.has_long_jobs) {
      if (call.opt != 0 && failure.empty())
        failure = "replayed probe without long jobs but recorded OPT " +
                  std::to_string(call.opt);
      continue;
    }
    const DpProblem& problem = probe.problem;
    const MixedRadix radix = problem.radix();
    const ConfigSet configs = [&] {
      const ScopedSpan span(recorder, "dp.config");
      return ConfigSet(problem.counts, problem.weights, problem.capacity,
                       radix);
    }();
    std::vector<std::int64_t> rows;
    rows.reserve(configs.size() * configs.dims());
    for (std::size_t c = 0; c < configs.size(); ++c)
      for (const std::int64_t x : configs.config(c)) rows.push_back(x);
    const FitSet fitset = [&] {
      const ScopedSpan span(recorder, "dp.fitset");
      return FitSet(rows, configs.dims());
    }();
    const LevelBuckets buckets = [&] {
      const ScopedSpan span(recorder, "dp.buckets");
      return LevelBuckets(radix);
    }();
    const DpResult table = [&] {
      const ScopedSpan span(recorder, "dp.solver");
      return solver.solve(problem, SolveOptions{});
    }();
    counts.dp_solves += 1;
    counts.cells += static_cast<double>(problem.table_size());
    counts.levels += static_cast<double>(buckets.levels());
    counts.configs += static_cast<double>(configs.size());
    if (fitset.size() != configs.size() && failure.empty())
      failure = "FitSet rows differ from the configuration count";
    if (table.opt != call.opt && failure.empty())
      failure = "replayed probe at T=" + std::to_string(call.target) +
                " has OPT " + std::to_string(table.opt) + ", recorded " +
                std::to_string(call.opt);
    if (i + 1 == result.dp_calls.size() && call.target == result.best_target) {
      const auto machines = [&] {
        const ScopedSpan span(recorder, "dp.reconstruct");
        return reconstruct_machines(problem, table);
      }();
      if (static_cast<std::int64_t>(machines.size()) > instance.machines &&
          failure.empty())
        failure = "reconstruction uses more machines than the instance has";
    }
  }
  return failure;
}

void write_spans(const SpanRecorder& recorder, const std::string& path) {
  if (path.empty()) return;
  // A traced run records millions of spans; the file keeps a prefix large
  // enough to inspect (about 10 MB) instead of all of them.
  constexpr std::size_t kMaxWrittenSpans = 200000;
  std::ofstream out(path);
  recorder.write_json(out, kMaxWrittenSpans);
}

void emit_layer_metrics(const SpanRecorder& recorder,
                        const LayerCounts& counts, const ServeLayers& serve,
                        double lag_ms_p99, double span_cost_ns,
                        RunResult& out) {
  std::map<std::string, double> ns = recorder.total_ns();
  std::map<std::string, std::size_t> calls = recorder.counts();
  const auto n = [&](const char* name) {
    return static_cast<double>(calls[name]);
  };
  // DpSolver::solve builds its own ConfigSet and LevelBuckets; the fill is
  // what remains after the separately timed builds of the same problem.
  const double fill_ns = ns["dp.solver"] - ns["dp.config"] - ns["dp.buckets"];
  out.add("dp.solver.fill_ms", ratio(fill_ns / 1e6, counts.solves), "ms");
  out.add("dp.solver.cells", ratio(counts.cells, counts.solves), "count");
  out.add("dp.solver.ns_per_cell", ratio(fill_ns, counts.cells), "ns");
  out.add("dp.solver.levels", ratio(counts.levels, counts.dp_solves), "count");
  out.add("dp.solver.cells_per_level", ratio(counts.cells, counts.levels),
          "count");
  out.add("dp.config.build_us", ratio(ns["dp.config"] / 1e3, counts.dp_solves),
          "us");
  out.add("dp.config.configs", ratio(counts.configs, counts.dp_solves),
          "count");
  out.add("dp.fitset.build_us", ratio(ns["dp.fitset"] / 1e3, counts.dp_solves),
          "us");
  out.add("dp.buckets.build_us",
          ratio(ns["dp.buckets"] / 1e3, counts.dp_solves), "us");
  out.add("core.rounding.calls_per_solve",
          ratio(n("core.rounding"), counts.solves), "count");
  out.add("core.rounding.us_per_call",
          ratio(ns["core.rounding"] / 1e3, n("core.rounding")), "us");
  out.add("core.rounding.classes",
          ratio(counts.rounding_classes, n("core.rounding")), "count");
  out.add("eptas.sparsify.calls_per_solve",
          ratio(n("eptas.sparsify"), counts.solves), "count");
  out.add("eptas.sparsify.us_per_call",
          ratio(ns["eptas.sparsify"] / 1e3, n("eptas.sparsify")), "us");
  out.add("eptas.sparsify.classes",
          ratio(counts.sparsify_classes, n("eptas.sparsify")), "count");
  out.add("core.search.rounds_per_solve",
          ratio(counts.search_rounds, counts.solves), "count");
  out.add("core.search.probes_per_solve", ratio(counts.probes, counts.solves),
          "count");
  out.add("dp.reconstruct.us_per_call",
          ratio(ns["dp.reconstruct"] / 1e3, n("dp.reconstruct")), "us");
  out.add("core.certificate.us_per_call",
          ratio(ns["core.certificate"] / 1e3, n("core.certificate")), "us");

  const double req = serve.requests;
  out.add("core.probe_cache.lookups", ratio(serve.cache_lookups, req),
          "count");
  out.add("core.probe_cache.hits", ratio(serve.cache_hits, req), "count");
  out.add("core.probe_cache.hit_ratio",
          ratio(serve.cache_hits, serve.cache_lookups), "ratio");
  out.add("core.probe_cache.inserts", ratio(serve.cache_inserts, req),
          "count");
  out.add("core.probe_cache.bound_skips", ratio(serve.bound_skips, req),
          "count");
  out.add("core.probe_cache.cross_hits", ratio(serve.cross_hits, req),
          "count");
  out.add("gpu.solve_ms", ratio(serve.gpu_ns / 1e6, serve.gpu_solves), "ms");
  out.add("gpusim.kernels", ratio(serve.kernels, serve.gpu_solves), "count");
  out.add("gpusim.child_kernels", ratio(serve.child_kernels, serve.gpu_solves),
          "count");
  out.add("gpusim.host_ns_per_kernel", ratio(serve.gpu_ns, serve.kernels),
          "ns");
  out.add("gpusim.sim_ms", ratio(serve.sim_ms, serve.gpu_solves), "ms", "sim");
  out.add("serve.submit_us", ratio(serve.submit_ns / 1e3, req), "us");
  out.add("serve.coalesced_frac", ratio(serve.coalesced, req), "ratio");
  out.add("serve.rejected", serve.rejected, "count");
  out.add("serve.worker_share_max", ratio(serve.worker_max, req), "ratio");
  out.add("core.resilient.attempts_per_request", ratio(serve.attempts, req),
          "count");
  out.add("core.resilient.fallback_share", ratio(serve.fallbacks, req),
          "ratio");
  out.add("core.resilient.degraded_frac", ratio(serve.degraded, req), "ratio");

  out.add("trace.unattributed_frac", recorder.unattributed_frac(), "ratio");
  out.add("trace.overhead_frac",
          ratio(static_cast<double>(recorder.spans().size()) * span_cost_ns,
                recorder.root_ns()),
          "ratio");
  out.add("bench.generator_lag_ms.p99", lag_ms_p99, "ms");
}

}  // namespace perfbench
