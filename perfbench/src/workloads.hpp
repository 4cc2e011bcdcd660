// Seeded input generation for the three workloads. Every generator
// parameter comes from perfbench/workloads.json (run.py passes each one as
// `--param key=value`), so the record of what a workload is lives in one
// place. The program under test only ever sees the generated instances.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace perfbench {

/// The `--param key=value` pairs of one run. Every lookup is required: a
/// missing key is a usage error, never a silent default.
class Params {
 public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  [[nodiscard]] const std::string& str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::int64_t integer(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, std::string>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

enum class Rounding { kClassic, kEptas };

/// One closed-loop solve: the instance and the engine call to make.
struct SolveCase {
  pcmax::Instance instance;
  Rounding rounding = Rounding::kClassic;
  double epsilon = 0.3;
};

/// cpu-small: `pool` instances of small shapes (n jobs, m machines with at
/// least min_jobs_per_machine jobs each, largest-probe work at most
/// work_max), uniform or bimodal, alternating solve_ptas / solve_eptas.
[[nodiscard]] std::vector<SolveCase> make_cpu_small(const Params& params,
                                                    std::uint64_t seed);

/// cpu-large: `pool` instances cycling through the `strata` list
/// (rounding/k/distribution/n-range/m-range), each drawn by rejection until
/// its largest probe's work (table cells x configurations at T = LB) falls
/// inside [work_lo, work_hi].
[[nodiscard]] std::vector<SolveCase> make_cpu_large(const Params& params,
                                                    std::uint64_t seed);

/// Largest-probe work estimate of `instance` at accuracy k: DP table cells
/// times machine configurations of the rounding at T = LB; 0 when no job is
/// long. Tables above `cells_cap` return a value above any band.
[[nodiscard]] double largest_probe_work(const pcmax::Instance& instance,
                                        std::int64_t k, Rounding rounding,
                                        std::uint64_t cells_cap);

/// serve-open request stream: `count` small-shape instances (as for
/// cpu-small) in submission order. A
/// `dup_share` fraction repeat one of the last `dup_window` unique
/// instances exactly; `is_dup[i]` marks them.
struct RequestStream {
  std::vector<pcmax::Instance> instances;
  std::vector<bool> is_dup;
};
[[nodiscard]] RequestStream make_serve_requests(const Params& params,
                                                std::uint64_t seed,
                                                std::size_t count);

/// The set-up solve's input: of the first 16 inputs `workload` draws from
/// the fixed seed 0 (serve-open: with work_max raised to warm_up_work_max),
/// the one whose largest probe has the most work. It does not depend on the
/// run's seed, so set-up time varies only with the program and the host.
[[nodiscard]] SolveCase warm_up_case(const std::string& workload,
                                     const Params& params);

}  // namespace perfbench
