// What one run reports: operations attempted and failed, and named metrics
// with their unit and clock (`wall` for host time and everything derived
// from it, `sim` for the simulated-GPU clock, which is never compared with
// a wall metric).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock = "wall";
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Params params;
  std::string spans_path;  ///< where a traced run writes its spans, if set
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  ///< failed correctness checks (subset of failed)
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< first few failure reasons
  std::vector<std::string> notes;     ///< human-readable run details

  /// An operation that failed without a wrong answer (refused, timed out,
  /// non-ok status).
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  /// An answer that failed a correctness check.
  void wrong_answer(const std::string& why) {
    ++wrong;
    fail(why);
  }
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& clock = "wall") {
    metrics.push_back(Metric{name, value, unit, clock});
  }
};

/// The note listing every cold set-up time of a run, in milliseconds.
[[nodiscard]] inline std::string set_up_note(const std::vector<double>& s) {
  std::ostringstream note;
  note << "set-ups (ms, one per child process):";
  for (const double seconds : s) note << ' ' << seconds * 1e3;
  return note.str();
}

/// cpu-small and cpu-large: closed loop, one caller.
[[nodiscard]] RunResult run_cpu(const RunConfig& config);

/// serve-open: open loop over a fixed rate ladder.
[[nodiscard]] RunResult run_serve(const RunConfig& config);

}  // namespace perfbench
