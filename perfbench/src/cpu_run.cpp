// cpu-small and cpu-large: one caller in a closed loop over a seeded pool of
// instances, each solved by solve_ptas or solve_eptas on a long-lived
// LevelBucketSolver with the program's defaults (bisection search, probe
// cache off, num_threads = 0), as pcmax_cli runs them.
#include <memory>
#include <sstream>

#include "checks.hpp"
#include "core/certificate.hpp"
#include "core/rounding.hpp"
#include "dp/solver.hpp"
#include "env.hpp"
#include "eptas/eptas.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

pcmax::PtasResult solve_case(const SolveCase& c,
                             const pcmax::dp::DpSolver& solver) {
  pcmax::PtasOptions options;
  options.epsilon = c.epsilon;
  return c.rounding == Rounding::kClassic
             ? pcmax::solve_ptas(c.instance, solver, options)
             : pcmax::eptas::solve_eptas(c.instance, solver, options);
}

/// Builds the solver and finishes one warm-up solve, whose answer must pass
/// every check; returns the seconds taken.
double set_up(const SolveCase& warm_up,
              std::unique_ptr<pcmax::dp::LevelBucketSolver>& solver) {
  const std::int64_t start = now_ns();
  solver = std::make_unique<pcmax::dp::LevelBucketSolver>();
  const pcmax::PtasResult warm = solve_case(warm_up, *solver);
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  if (const std::string bad = check_ptas(warm_up.instance, warm,
                                         pcmax::k_for_epsilon(warm_up.epsilon));
      !bad.empty())
    throw std::runtime_error("warm-up answer failed: " + bad);
  return seconds;
}

}  // namespace

RunResult run_cpu(const RunConfig& config) {
  const Params& p = config.params;
  const SolveCase warm_up = warm_up_case(config.workload, p);
  // Each timed set-up runs in a fresh child process, so it pays for the
  // first OpenMP team as a newly started program does. The traced run
  // reports no set-up time.
  std::unique_ptr<pcmax::dp::LevelBucketSolver> solver;
  const int setup_reps =
      config.trace ? 0 : static_cast<int>(p.integer("setup_reps"));
  const std::vector<double> setup_s =
      cold_set_ups(setup_reps, kSetUpSpanS,
                   [&] { return set_up(warm_up, solver); });
  (void)set_up(warm_up, solver);  // the solver of the timed phase

  const std::vector<SolveCase> cases =
      config.workload == "cpu-small" ? make_cpu_small(p, config.seed)
                                     : make_cpu_large(p, config.seed);
  const double tail_p = p.num("tail_percentile");
  const double limit_ms = p.num("latency_limit_ms");
  RunResult out;

  SpanRecorder recorder;
  LayerCounts counts;
  const double span_ns = config.trace ? span_cost_ns() : 0.0;
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion times from the start
  std::vector<double> lag_ms;
  double ratio_sum = 0.0;
  const std::int64_t budget_ns =
      static_cast<std::int64_t>(config.seconds * 1e9);
  const std::int64_t start = now_ns();
  std::int64_t last_end = start;
  for (std::size_t i = 0; last_end - start < budget_ns; ++i) {
    const SolveCase& c = cases[i % cases.size()];
    const std::int64_t k = pcmax::k_for_epsilon(c.epsilon);
    ++out.attempted;
    const std::int64_t t0 = now_ns();
    lag_ms.push_back(static_cast<double>(t0 - last_end) / 1e6);
    std::string bad;
    if (!config.trace) {
      const pcmax::PtasResult r = solve_case(c, *solver);
      const std::int64_t t1 = now_ns();
      latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      done_s.push_back(static_cast<double>(t1 - start) / 1e9);
      bad = check_ptas(c.instance, r, k);
      if (bad.empty())
        ratio_sum +=
            pcmax::certify(c.instance, r.schedule).ratio_vs_lower_bound;
    } else {
      const ScopedSpan root(recorder, "bench.solve",
                            static_cast<std::int64_t>(i));
      const pcmax::PtasResult r = [&] {
        const ScopedSpan span(recorder, c.rounding == Rounding::kClassic
                                            ? "core.ptas"
                                            : "eptas.solve");
        return solve_case(c, *solver);
      }();
      {
        const ScopedSpan span(recorder, "bench.replay");
        bad = replay_probes(recorder, c.instance, r, c.rounding, k, *solver,
                            counts);
      }
      const ScopedSpan span(recorder, "core.certificate");
      if (bad.empty()) bad = check_ptas(c.instance, r, k);
    }
    if (!bad.empty())
      out.wrong_answer(std::string("solve ") + std::to_string(i) + ": " + bad);
    last_end = now_ns();
  }
  const double elapsed_s = static_cast<double>(last_end - start) / 1e9;

  if (config.trace) {
    emit_layer_metrics(recorder, counts, ServeLayers{},
                       percentile(lag_ms, 99.0), span_ns, out);
    write_spans(recorder, config.spans_path);
    out.notes.push_back(std::string("traced solves ") +
                        std::to_string(out.attempted));
    return out;
  }
  const auto windows = static_cast<std::size_t>(p.integer("windows"));
  const double throughput = windowed_rate(done_s, elapsed_s, windows);
  const double tail_ms = windowed_percentile(latency_ms, windows, tail_p);
  out.add("setup_s", median(setup_s), "s");
  out.notes.push_back(set_up_note(setup_s));
  out.add("throughput_per_s", throughput, "1/s");
  out.add("latency_ms.p50", windowed_percentile(latency_ms, windows, 50.0),
          "ms");
  // A closed loop with one caller never builds a backlog: it sustains its
  // own completion rate as long as its tail meets the limit.
  out.add("sustained_rps", tail_ms <= limit_ms ? throughput : 0.0, "1/s");
  out.add("makespan_ratio",
          out.attempted > out.failed
              ? ratio_sum / static_cast<double>(out.attempted - out.failed)
              : 0.0,
          "ratio");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  const std::size_t per_window = latency_ms.size() / windows;
  std::ostringstream rates;
  rates << "window rates (1/s):";
  for (const double r : window_rates(done_s, elapsed_s, windows))
    rates << ' ' << static_cast<int>(r);
  out.notes.push_back(rates.str());
  std::ostringstream summary;
  summary << "solves " << latency_ms.size() << " over " << elapsed_s
          << " s; latency_ms.tail (p" << tail_p << ", median of " << windows
          << " windows with " << samples_beyond(per_window, tail_p)
          << " samples beyond it each; reported, not gated) " << tail_ms
          << " ms";
  out.notes.push_back(summary.str());
  if (!percentile_supported(per_window, tail_p))
    out.notes.push_back("WARNING: fewer than 10 samples beyond the tail");
  return out;
}

}  // namespace perfbench
