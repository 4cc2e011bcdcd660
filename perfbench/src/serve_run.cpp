// serve-open: an open loop of Poisson arrivals against one long-lived
// serve::SolveServer with default ServeOptions (GPU engine first, shared
// ShardedProbeCache, coalescing on), over a fixed ladder of offered rates.
// One benchmark thread submits on schedule and collects responses (it polls
// while responses are outstanding, so it occupies one core); the server
// gets the remaining cores as workers. Latency runs from each
// request's due time, so a stall is charged to every request it delays.
#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "core/certificate.hpp"
#include "core/rounding.hpp"
#include "dp/solver.hpp"
#include "env.hpp"
#include "gpu/gpu_ptas.hpp"
#include "gpu/resilient_gpu.hpp"
#include "gpusim/device.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using pcmax::serve::SolveResponse;

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> values;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');)
    values.push_back(std::stod(item));
  return values;
}

/// Installs a metrics registry for the traced run so the program's own obs
/// counters (search.bound_skips) can be read; removes it on destruction.
class MetricsScope {
 public:
  explicit MetricsScope(pcmax::obs::MetricsRegistry* registry)
      : active_(registry != nullptr) {
    if (active_) pcmax::obs::install_metrics(registry);
  }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;
  ~MetricsScope() {
    if (active_) pcmax::obs::install_metrics(nullptr);
  }

 private:
  bool active_;
};

/// Everything one run collects across its rate steps.
struct ServeRun {
  ServeRun(const RunConfig& c, RequestStream s)
      : config(c), stream(std::move(s)) {}

  const RunConfig& config;
  pcmax::ResilientOptions options;
  RequestStream stream;
  std::size_t next_request = 0;
  RunResult out;
  SpanRecorder recorder;
  ServeLayers layers;
  std::vector<double> lag_ms;
  std::vector<std::uint64_t> per_worker;
  double ratio_sum = 0.0;
  std::uint64_t ratio_count = 0;
  /// Requests whose responses are re-solved standalone afterwards.
  std::vector<std::pair<std::size_t, SolveResponse>> sampled;
  std::uint64_t sample_every = 1;
  std::size_t sample_max = 0;
};

struct InFlight {
  std::size_t request = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_start_ns = 0;
  std::int64_t submit_end_ns = 0;
  std::future<SolveResponse> future;
};

struct StepResult {
  RateStep step;
  std::vector<std::pair<std::size_t, double>> latency_by_request;
  std::vector<double> latency_ms;  ///< in request (due) order
};

void complete(ServeRun& run, InFlight& f, std::int64_t done_ns,
              StepResult& result) {
  SolveResponse response = f.future.get();
  result.latency_by_request.emplace_back(
      f.request, static_cast<double>(done_ns - f.due_ns) / 1e6);
  const pcmax::Instance& instance = run.stream.instances[f.request];
  ServeLayers& l = run.layers;
  l.requests += 1;
  l.coalesced += response.coalesced ? 1 : 0;
  l.attempts += static_cast<double>(response.result.attempts.size());
  l.fallbacks += response.result.engine != "gpu-ptas" ? 1 : 0;
  l.degraded += response.result.degraded ? 1 : 0;
  l.submit_ns += static_cast<double>(f.submit_end_ns - f.submit_start_ns);
  if (response.worker >= 0 &&
      static_cast<std::size_t>(response.worker) < run.per_worker.size())
    ++run.per_worker[static_cast<std::size_t>(response.worker)];
  if (run.config.trace) {
    const std::int32_t root = run.recorder.add(
        "serve.request", f.due_ns, done_ns, -1,
        static_cast<std::int64_t>(f.request));
    run.recorder.add("bench.generator_lag", f.due_ns, f.submit_start_ns, root);
    run.recorder.add("serve.submit", f.submit_start_ns, f.submit_end_ns, root);
    run.recorder.add("serve.inflight", f.submit_end_ns, done_ns, root);
  }
  if (!response.ok()) {
    ++result.step.failed;
    run.out.fail("request " + std::to_string(f.request) + ": " +
                 response.status.to_string());
    return;
  }
  if (std::string bad = check_response(instance, response); !bad.empty()) {
    ++result.step.failed;
    run.out.wrong_answer("request " + std::to_string(f.request) + ": " + bad);
    return;
  }
  run.ratio_sum +=
      pcmax::certify(instance, response.result.schedule).ratio_vs_lower_bound;
  ++run.ratio_count;
  if (!run.stream.is_dup[f.request] &&
      f.request % run.sample_every == run.config.seed % run.sample_every &&
      run.sampled.size() < run.sample_max)
    run.sampled.emplace_back(f.request, std::move(response));
}

/// Offers `rate_per_s` on the schedule `due` (seconds from the step start,
/// all before `duration_s`), then waits for the step's last response (up to
/// `drain_s`).
StepResult run_step(ServeRun& run, pcmax::serve::SolveServer& server,
                    double rate_per_s, const std::vector<double>& due,
                    double duration_s, double drain_s, std::size_t windows) {
  StepResult result;
  result.step.rate_per_s = rate_per_s;
  std::vector<InFlight> flight;
  std::vector<std::size_t> backlog;
  std::vector<double> sent_s;
  const std::int64_t start = now_ns();
  const std::int64_t hard_stop =
      start + static_cast<std::int64_t>((duration_s + drain_s) * 1e9);
  std::int64_t last_done = start;
  std::size_t next = 0;
  while (true) {
    std::int64_t now = now_ns();
    while (next < due.size() &&
           start + static_cast<std::int64_t>(due[next] * 1e9) <= now) {
      InFlight f;
      f.request = run.next_request++;
      f.due_ns = start + static_cast<std::int64_t>(due[next] * 1e9);
      pcmax::serve::SolveRequest request;
      request.instance = run.stream.instances[f.request];
      request.options = run.options;
      f.submit_start_ns = now_ns();
      auto admitted = server.submit(std::move(request));
      f.submit_end_ns = now_ns();
      sent_s.push_back(static_cast<double>(f.submit_start_ns - start) / 1e9);
      ++run.out.attempted;
      if (admitted.has_value()) {
        f.future = std::move(*admitted);
        flight.push_back(std::move(f));
      } else {
        ++result.step.failed;
        run.layers.rejected += 1;
        run.out.fail("request " + std::to_string(f.request) + " refused: " +
                     admitted.status().to_string());
      }
      backlog.push_back(flight.size());
      ++next;
      now = now_ns();
    }
    for (std::size_t j = 0; j < flight.size();) {
      if (flight[j].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        last_done = now_ns();
        complete(run, flight[j], last_done, result);
        flight[j] = std::move(flight.back());
        flight.pop_back();
      } else {
        ++j;
      }
    }
    if (next == due.size() && flight.empty()) break;
    if (now > hard_stop) {
      for (const InFlight& f : flight) {
        ++result.step.failed;
        run.out.fail("request " + std::to_string(f.request) +
                     " unanswered after the drain limit");
      }
      break;  // the server answers them at shutdown; nobody waits
    }
    // With responses outstanding, poll by yielding so completion times are
    // exact to a few microseconds; otherwise sleep until the next due time.
    if (!flight.empty()) {
      std::this_thread::yield();
    } else if (next < due.size()) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(
          start + static_cast<std::int64_t>(due[next] * 1e9))));
    }
  }

  for (const double late : lateness_ms(due, sent_s))
    run.lag_ms.push_back(late);
  std::sort(result.latency_by_request.begin(),
            result.latency_by_request.end());
  for (const auto& entry : result.latency_by_request)
    result.latency_ms.push_back(entry.second);
  const double span_s = static_cast<double>(last_done - start) / 1e9;
  result.step.completed_per_s =
      span_s > 0.0 ? static_cast<double>(result.latency_ms.size()) / span_s
                   : 0.0;
  result.step.tail_ms = windowed_percentile(
      result.latency_ms, windows,
      supported_percentile(result.latency_ms.size() / windows, 99.0));
  result.step.backlog_grew =
      backlog_grows(backlog, static_cast<int>(run.per_worker.size()));
  return result;
}

/// Re-solves the sampled responses with a standalone solve_resilient (fresh
/// device, no shared cache, no coalescing): the serve determinism contract.
void verify_sample(ServeRun& run) {
  for (const auto& [index, response] : run.sampled) {
    pcmax::gpusim::Device device(pcmax::gpusim::DeviceSpec::k40());
    const auto chain = pcmax::gpu::make_gpu_chain(device);
    const pcmax::ResilientResult reference = pcmax::solve_resilient(
        run.stream.instances[index], chain, run.options);
    if (!same_result(response.result, reference))
      run.out.wrong_answer("request " + std::to_string(index) +
                           " differs from a standalone solve_resilient");
  }
}

/// Replays sampled unique requests through the GPU engine's public entry
/// (solve_gpu_ptas on a fresh device, as one engine attempt runs it) and
/// their probes through the CPU layers, until `deadline_ns`.
void replay_sample(ServeRun& run, std::int64_t deadline_ns,
                   LayerCounts& counts) {
  const pcmax::dp::LevelBucketSolver solver;
  const std::int64_t k = pcmax::k_for_epsilon(run.options.epsilon);
  pcmax::gpu::GpuPtasOptions options;
  options.epsilon = run.options.epsilon;
  for (std::size_t i = 0; i < run.next_request && now_ns() < deadline_ns;
       ++i) {
    if (run.stream.is_dup[i]) continue;
    const pcmax::Instance& instance = run.stream.instances[i];
    const ScopedSpan root(run.recorder, "bench.replay",
                          static_cast<std::int64_t>(i));
    pcmax::gpusim::Device device(pcmax::gpusim::DeviceSpec::k40());
    const std::int64_t t0 = now_ns();
    const pcmax::gpu::GpuPtasResult r = [&] {
      const ScopedSpan span(run.recorder, "gpu.solve");
      return pcmax::gpu::solve_gpu_ptas(instance, device, options);
    }();
    run.layers.gpu_ns += static_cast<double>(now_ns() - t0);
    run.layers.gpu_solves += 1;
    run.layers.kernels += static_cast<double>(r.stats.kernels);
    run.layers.child_kernels += static_cast<double>(r.stats.child_kernels);
    run.layers.sim_ms += r.device_time.ms();
    std::string bad =
        replay_probes(run.recorder, instance, r.ptas, Rounding::kClassic, k,
                      solver, counts);
    const ScopedSpan span(run.recorder, "core.certificate");
    if (bad.empty()) bad = check_ptas(instance, r.ptas, k);
    if (!bad.empty())
      run.out.wrong_answer("replay of request " + std::to_string(i) + ": " +
                           bad);
  }
}

}  // namespace

RunResult run_serve(const RunConfig& config) {
  const Params& p = config.params;
  const double base_rate = p.num("rate_per_s");
  const std::vector<double> ladder = parse_list(p.str("ladder"));
  const double limit_ms = p.num("latency_limit_ms");
  const double drain_s = p.num("drain_s");

  pcmax::serve::ServeOptions serve_options;
  serve_options.workers = std::max(1, nproc() - 1);

  // Step durations give every step the same expected request count, and
  // the set rate (multiplier 1) `windows` times that count, reported as
  // medians over its windows. The traced run offers only the set rate, for
  // part of its time.
  const auto windows = static_cast<std::size_t>(p.integer("windows"));
  const auto set_rate_share = static_cast<double>(windows);
  std::vector<double> rates;
  std::vector<double> durations;
  if (!config.trace) {
    double weight_sum = 0.0;
    for (const double m : ladder)
      weight_sum += (m == 1.0 ? set_rate_share : 1.0) / m;
    for (const double m : ladder) {
      rates.push_back(base_rate * m);
      durations.push_back(config.seconds * (m == 1.0 ? set_rate_share : 1.0) /
                          m / weight_sum);
    }
  } else {
    rates.push_back(base_rate);
    durations.push_back(config.seconds * p.num("trace_serve_share"));
  }
  std::vector<std::vector<double>> dues;
  std::size_t total = 0;
  for (std::size_t s = 0; s < rates.size(); ++s) {
    dues.push_back(poisson_due_times(config.seed * 1000 + s, rates[s],
                                     durations[s]));
    total += dues.back().size();
  }

  ServeRun run(config, make_serve_requests(p, config.seed, total));
  run.options.epsilon = p.num("epsilon");
  run.per_worker.assign(static_cast<std::size_t>(serve_options.workers), 0);
  run.sample_every = static_cast<std::uint64_t>(p.integer("verify_every"));
  run.sample_max = static_cast<std::size_t>(p.integer("verify_max"));
  const pcmax::Instance warm_up = warm_up_case(config.workload, p).instance;

  // Builds a server and finishes one warm-up request, whose response must
  // pass every check; returns the seconds taken. Each timed set-up runs in a
  // fresh child process, so it starts the workers and their OpenMP teams
  // cold. The traced run reports no set-up time.
  pcmax::obs::MetricsRegistry registry;  // outlives the server
  std::unique_ptr<pcmax::serve::SolveServer> server;
  const auto set_up = [&] {
    const std::int64_t start = now_ns();
    server = std::make_unique<pcmax::serve::SolveServer>(serve_options);
    auto admitted =
        server->submit(pcmax::serve::SolveRequest{warm_up, run.options});
    if (!admitted.has_value()) throw std::runtime_error("warm-up refused");
    const SolveResponse response = admitted->get();
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    if (const std::string bad = check_response(warm_up, response); !bad.empty())
      throw std::runtime_error("warm-up answer failed: " + bad);
    return seconds;
  };
  const int setup_reps =
      config.trace ? 0 : static_cast<int>(p.integer("setup_reps"));
  const std::vector<double> setup_s =
      cold_set_ups(setup_reps, kSetUpSpanS, set_up);
  (void)set_up();  // the server of the timed phase

  const double span_ns = config.trace ? span_cost_ns() : 0.0;
  const std::int64_t run_start = now_ns();
  std::vector<StepResult> steps;
  pcmax::serve::ServeStats before = server->stats();
  {
    const MetricsScope metrics(config.trace ? &registry : nullptr);
    for (std::size_t s = 0; s < rates.size(); ++s)
      steps.push_back(run_step(run, *server, rates[s], dues[s], durations[s],
                               drain_s, ladder[s] == 1.0 ? windows : 1));
    const pcmax::serve::ServeStats after = server->stats();
    server->shutdown();
    run.layers.cache_lookups =
        static_cast<double>(after.cache.lookups - before.cache.lookups);
    run.layers.cache_hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    run.layers.cache_inserts =
        static_cast<double>(after.cache.insertions - before.cache.insertions);
    run.layers.cross_hits =
        static_cast<double>(after.cache.cross_hits - before.cache.cross_hits);
    run.layers.bound_skips =
        static_cast<double>(registry.counter("search.bound_skips"));
  }
  verify_sample(run);
  RunResult& out = run.out;

  if (config.trace) {
    LayerCounts counts;
    replay_sample(run, run_start + static_cast<std::int64_t>(
                                       config.seconds * 1e9),
                  counts);
    for (const std::uint64_t n : run.per_worker)
      run.layers.worker_max =
          std::max(run.layers.worker_max, static_cast<double>(n));
    emit_layer_metrics(run.recorder, counts, run.layers,
                       percentile(run.lag_ms, 99.0), span_ns, out);
    write_spans(run.recorder, config.spans_path);
    out.notes.push_back("traced requests " + std::to_string(out.attempted));
    return std::move(out);
  }

  // The set rate is the ladder step with multiplier 1.
  const StepResult* set_rate = &steps.front();
  for (std::size_t s = 0; s < steps.size(); ++s)
    if (ladder[s] == 1.0) set_rate = &steps[s];
  std::vector<RateStep> rate_steps;
  for (const StepResult& s : steps) {
    rate_steps.push_back(s.step);
    std::ostringstream line;
    line << "step " << s.step.rate_per_s << "/s: completed "
         << s.step.completed_per_s << "/s, p"
         << supported_percentile(s.latency_ms.size(), 99.0) << " "
         << s.step.tail_ms << " ms over " << s.latency_ms.size()
         << " responses, backlog "
         << (s.step.backlog_grew ? "grew" : "steady") << ", failed "
         << s.step.failed
         << (sustained(s.step, limit_ms) ? "" : " (not sustained)");
    out.notes.push_back(line.str());
  }
  std::ostringstream tail;
  tail << "latency_ms.tail (p99 at the set rate, median of " << windows
       << " windows; reported, not gated) " << set_rate->step.tail_ms << " ms";
  out.notes.push_back(tail.str());
  out.add("setup_s", median(setup_s), "s");
  out.notes.push_back(set_up_note(setup_s));
  out.add("throughput_per_s", set_rate->step.completed_per_s, "1/s");
  out.add("latency_ms.p50",
          windowed_percentile(set_rate->latency_ms, windows, 50.0), "ms");
  out.add("sustained_rps", sustained_rate(rate_steps, limit_ms), "1/s");
  out.add("makespan_ratio",
          run.ratio_count > 0
              ? run.ratio_sum / static_cast<double>(run.ratio_count)
              : 0.0,
          "ratio");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.notes.push_back(
      "degraded_frac " +
      std::to_string(run.layers.requests > 0
                         ? run.layers.degraded / run.layers.requests
                         : 0.0) +
      ", coalesced " + std::to_string(run.layers.coalesced) +
      ", verified standalone " + std::to_string(run.sampled.size()) +
      ", workers " + std::to_string(serve_options.workers) +
      ", generator lag p99 " + std::to_string(percentile(run.lag_ms, 99.0)) +
      " ms");
  if (!percentile_supported(set_rate->latency_ms.size() / windows, 99.0))
    out.notes.push_back("WARNING: fewer than 10 samples beyond the p99");
  return std::move(out);
}

}  // namespace perfbench
