// The traced run's per-layer measurements. replay_probes() re-runs one
// solve's probe sequence from PtasResult::dp_calls through the public
// functions of each layer (rounding or sparsification, ConfigSet, FitSet,
// LevelBuckets, DpSolver::solve, reconstruct_machines), each call inside a
// span named after its module, and checks that every re-run probe's OPT
// equals the recorded one. emit_layer_metrics() turns the spans and counts
// into the per-layer metrics every traced run reports.
#pragma once

#include <cstdint>
#include <string>

#include "core/ptas.hpp"
#include "dp/solver.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Work counts gathered beside the spans.
struct LayerCounts {
  double solves = 0;          ///< solves whose probes were replayed
  double search_rounds = 0;   ///< PtasResult::search_iterations
  double probes = 0;          ///< dp_calls entries
  double rounding_classes = 0;
  double sparsify_classes = 0;
  double dp_solves = 0;       ///< probes that filled a table
  double cells = 0;
  double levels = 0;
  double configs = 0;
};

/// Serve-side layers, measured only where a workload exercises them (zero
/// on workloads that bypass the layer).
struct ServeLayers {
  double requests = 0;
  double cache_lookups = 0, cache_hits = 0, cache_inserts = 0;
  double bound_skips = 0, cross_hits = 0;
  double gpu_solves = 0, gpu_ns = 0, kernels = 0, child_kernels = 0;
  double sim_ms = 0;
  double submit_ns = 0, coalesced = 0, rejected = 0, attempts = 0;
  double fallbacks = 0, degraded = 0, worker_max = 0;
};

/// Replays `result`'s probes (see the file comment) under the innermost
/// open span of `recorder`. Returns an empty string, or the reason when a
/// re-run probe's OPT differs from the recorded one.
[[nodiscard]] std::string replay_probes(SpanRecorder& recorder,
                                        const pcmax::Instance& instance,
                                        const pcmax::PtasResult& result,
                                        Rounding rounding, std::int64_t k,
                                        const pcmax::dp::DpSolver& solver,
                                        LayerCounts& counts);

/// Writes the recorder's first spans to `path` (nothing when `path` is
/// empty).
void write_spans(const SpanRecorder& recorder, const std::string& path);

/// Appends every per-layer metric to `out`. `lag_ms_p99` is the
/// benchmark's own generator lag; `span_cost_ns` the calibrated cost of one
/// span.
void emit_layer_metrics(const SpanRecorder& recorder,
                        const LayerCounts& counts, const ServeLayers& serve,
                        double lag_ms_p99, double span_cost_ns,
                        RunResult& out);

}  // namespace perfbench
