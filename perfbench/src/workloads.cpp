#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/bounds.hpp"
#include "core/resilient.hpp"
#include "core/rounding.hpp"
#include "dp/config.hpp"
#include "eptas/sparsify.hpp"
#include "stats.hpp"
#include "workload/generators.hpp"

namespace perfbench {

const std::string& Params::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end())
    throw std::invalid_argument("missing --param " + key);
  return it->second;
}

double Params::num(const std::string& key) const {
  return std::stod(str(key));
}

std::int64_t Params::integer(const std::string& key) const {
  return std::stoll(str(key));
}

namespace {

/// Tables above this many cells are never small; their configurations are
/// not enumerated while drawing small instances.
constexpr std::uint64_t kSmallCellsCap = 1'000'000;

/// Uniform or bimodal instance with the workload's job-time parameters.
pcmax::Instance draw_instance(const Params& p, std::size_t jobs,
                              std::int64_t machines, bool bimodal,
                              std::uint64_t seed) {
  if (!bimodal)
    return pcmax::workload::uniform_instance(jobs, machines, 1,
                                             p.integer("uniform_hi"), seed);
  return pcmax::workload::bimodal_instance(
      jobs, machines, 1, p.integer("bimodal_short_hi"),
      p.integer("bimodal_long_lo"), p.integer("bimodal_long_hi"),
      p.num("bimodal_long_share"), seed);
}

/// A small-shape instance: n in [n_min, n_max], m in [m_min, m_max] capped
/// so every machine gets at least min_jobs_per_machine jobs, redrawn until
/// its largest classic probe's work at the workload's epsilon is at most
/// work_max.
pcmax::Instance draw_small(const Params& p, std::uint64_t& state) {
  const std::int64_t k = pcmax::k_for_epsilon(p.num("epsilon"));
  const double work_max = p.num("work_max");
  while (true) {
    const std::int64_t n = uniform_int(state, p.integer("n_min"),
                                       p.integer("n_max"));
    const std::int64_t m_cap =
        std::max<std::int64_t>(1, n / p.integer("min_jobs_per_machine"));
    const std::int64_t m_max = std::min(p.integer("m_max"), m_cap);
    const std::int64_t m =
        uniform_int(state, std::min(p.integer("m_min"), m_max), m_max);
    const bool bimodal = unit_uniform(state) < p.num("bimodal_share");
    pcmax::Instance instance = draw_instance(
        p, static_cast<std::size_t>(n), m, bimodal, splitmix64(state));
    if (largest_probe_work(instance, k, Rounding::kClassic,
                           kSmallCellsCap) <= work_max)
      return instance;
  }
}

struct Stratum {
  Rounding rounding = Rounding::kClassic;
  std::int64_t k = 4;
  bool bimodal = false;
  std::int64_t n_lo = 0, n_hi = 0, m_lo = 0, m_hi = 0;
};

std::pair<std::int64_t, std::int64_t> parse_range(const std::string& text) {
  const auto dash = text.find('-');
  if (dash == std::string::npos)
    throw std::invalid_argument("bad range " + text);
  return {std::stoll(text.substr(0, dash)), std::stoll(text.substr(dash + 1))};
}

/// "classic/4/uniform/24-60/8-20" -> Stratum.
Stratum parse_stratum(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  for (std::string part; std::getline(in, part, '/');) parts.push_back(part);
  if (parts.size() != 5) throw std::invalid_argument("bad stratum " + text);
  Stratum s;
  if (parts[0] != "classic" && parts[0] != "eptas")
    throw std::invalid_argument("bad rounding in " + text);
  s.rounding = parts[0] == "eptas" ? Rounding::kEptas : Rounding::kClassic;
  s.k = std::stoll(parts[1]);
  if (parts[2] != "uniform" && parts[2] != "bimodal")
    throw std::invalid_argument("bad distribution in " + text);
  s.bimodal = parts[2] == "bimodal";
  std::tie(s.n_lo, s.n_hi) = parse_range(parts[3]);
  std::tie(s.m_lo, s.m_hi) = parse_range(parts[4]);
  return s;
}

}  // namespace

std::vector<SolveCase> make_cpu_small(const Params& p, std::uint64_t seed) {
  std::uint64_t state = seed * 0x100000001b3ULL + 1;
  const auto pool = static_cast<std::size_t>(p.integer("pool"));
  const double epsilon = p.num("epsilon");
  std::vector<SolveCase> cases;
  cases.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i)
    cases.push_back(SolveCase{
        draw_small(p, state),
        i % 2 == 0 ? Rounding::kClassic : Rounding::kEptas, epsilon});
  return cases;
}

double largest_probe_work(const pcmax::Instance& instance, std::int64_t k,
                          Rounding rounding, std::uint64_t cells_cap) {
  const std::int64_t lb = pcmax::makespan_lower_bound(instance);
  pcmax::dp::DpProblem problem;
  if (rounding == Rounding::kClassic) {
    const pcmax::RoundedInstance r = pcmax::round_instance(instance, lb, k);
    if (!r.feasible || r.class_index.empty()) return 0.0;
    problem = pcmax::to_dp_problem(r);
  } else {
    const pcmax::eptas::SparsifiedInstance r =
        pcmax::eptas::sparsify_instance(instance, lb, k);
    if (!r.feasible || r.class_index.empty()) return 0.0;
    problem = pcmax::eptas::to_dp_problem(r);
  }
  const std::uint64_t cells = problem.table_size();
  if (cells > cells_cap) return 1e300;
  const pcmax::dp::ConfigSet configs(problem.counts, problem.weights,
                                     problem.capacity, problem.radix());
  return static_cast<double>(cells) * static_cast<double>(configs.size());
}

std::vector<SolveCase> make_cpu_large(const Params& p, std::uint64_t seed) {
  std::vector<Stratum> strata;
  std::stringstream list(p.str("strata"));
  for (std::string item; std::getline(list, item, ',');)
    strata.push_back(parse_stratum(item));
  if (strata.empty()) throw std::invalid_argument("no strata");
  const double lo = p.num("work_lo");
  const double hi = p.num("work_hi");
  const auto cells_cap = static_cast<std::uint64_t>(p.integer("cells_cap"));
  const std::int64_t max_tries = p.integer("max_tries");
  const auto pool = static_cast<std::size_t>(p.integer("pool"));

  std::uint64_t state = seed * 0x100000001b3ULL + 2;
  std::vector<SolveCase> cases;
  cases.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    const Stratum& s = strata[i % strata.size()];
    bool accepted = false;
    for (std::int64_t t = 0; t < max_tries && !accepted; ++t) {
      const std::int64_t n = uniform_int(state, s.n_lo, s.n_hi);
      const std::int64_t m = uniform_int(state, s.m_lo, s.m_hi);
      pcmax::Instance instance = draw_instance(
          p, static_cast<std::size_t>(n), m, s.bimodal, splitmix64(state));
      const double work = largest_probe_work(instance, s.k, s.rounding,
                                             cells_cap);
      if (work < lo || work > hi) continue;
      cases.push_back(SolveCase{std::move(instance), s.rounding,
                                pcmax::epsilon_for_k(s.k)});
      accepted = true;
    }
    if (!accepted)
      throw std::runtime_error("cpu-large: no instance in the work band for "
                               "stratum " + std::to_string(i % strata.size()));
  }
  return cases;
}

RequestStream make_serve_requests(const Params& p, std::uint64_t seed,
                                  std::size_t count) {
  std::uint64_t state = seed * 0x100000001b3ULL + 3;
  const double dup_share = p.num("dup_share");
  const auto window = static_cast<std::size_t>(p.integer("dup_window"));
  RequestStream stream;
  std::vector<std::size_t> uniques;  // indices of unique instances
  for (std::size_t i = 0; i < count; ++i) {
    const bool dup = !uniques.empty() && unit_uniform(state) < dup_share;
    if (dup) {
      const std::size_t recent = std::min(window, uniques.size());
      const auto back = static_cast<std::size_t>(
          uniform_int(state, 1, static_cast<std::int64_t>(recent)));
      pcmax::Instance copy = stream.instances[uniques[uniques.size() - back]];
      stream.instances.push_back(std::move(copy));
    } else {
      uniques.push_back(i);
      stream.instances.push_back(draw_small(p, state));
    }
    stream.is_dup.push_back(dup);
  }
  return stream;
}

SolveCase warm_up_case(const std::string& workload, const Params& params) {
  constexpr std::uint64_t kWarmUpSeed = 0;
  constexpr std::size_t kCandidates = 16;
  Params few = params;
  few.set("pool", std::to_string(kCandidates));
  std::vector<SolveCase> cases;
  if (workload == "cpu-small") {
    cases = make_cpu_small(few, kWarmUpSeed);
  } else if (workload == "cpu-large") {
    cases = make_cpu_large(few, kWarmUpSeed);
  } else {
    // Serve requests are so small that thread start-up jitter would
    // dominate set-up time; the warm-up request is drawn larger.
    few.set("work_max", params.str("warm_up_work_max"));
    for (pcmax::Instance& instance :
         make_serve_requests(few, kWarmUpSeed, kCandidates).instances)
      cases.push_back(SolveCase{std::move(instance), Rounding::kClassic,
                                params.num("epsilon")});
  }
  std::size_t best = 0;
  double best_work = -1.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const double work = largest_probe_work(
        cases[i].instance, pcmax::k_for_epsilon(cases[i].epsilon),
        cases[i].rounding, std::uint64_t{1} << 40);
    if (work > best_work) {
      best_work = work;
      best = i;
    }
  }
  return cases[best];
}

}  // namespace perfbench
