// perfbench_run: runs one workload of the repository benchmark and
// prints its metrics. run.py builds it and passes the workload's parameters
// from workloads.json:
//
//   perfbench_run --workload cpu-small --seed 1 --seconds 10 --trace 0
//       --param pool=2000 ... [--record FILE] [--git-revision REV]
//
// A traced run (--trace 1) with --record also writes its spans to
// FILE.spans.json.
//
// Human-readable lines come first; the last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}. Exit code 0
// when every answer passed its checks, 1 when one did not (or the run could
// not complete), 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "env.hpp"
#include "report.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_run --workload "
               "cpu-small|cpu-large|serve-open --seed N --seconds S "
               "--trace 0|1 [--param KEY=VALUE]... [--record FILE] "
               "[--git-revision REV]\n",
               error.c_str());
  std::exit(2);
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.10g", value);
  return text;
}

std::string metrics_json(const RunResult& result, bool with_clock) {
  std::string out = "{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_clock) out += ", \"clock\": " + json_string(m.clock);
    out += "}";
  }
  return out + "}";
}

std::string result_json(const RunResult& result, bool with_clock) {
  return std::string("{\"correct\": ") +
         (result.wrong == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metrics_json(result, with_clock) + "}";
}

/// The full run record: environment, workload parameters, notes, and every
/// metric with its unit and clock.
std::string record_json(const RunConfig& config, const RunResult& result,
                        const std::string& git_revision) {
  std::string params = "{";
  bool first = true;
  for (const auto& [key, value] : config.params.all()) {
    params += (first ? "" : ", ") + json_string(key) + ": " +
              json_string(value);
    first = false;
  }
  params += "}";
  std::string notes = "[";
  for (std::size_t i = 0; i < result.notes.size(); ++i)
    notes += (i == 0 ? "" : ", ") + json_string(result.notes[i]);
  notes += "]";
  return "{\"workload\": " + json_string(config.workload) +
         ", \"seed\": " + std::to_string(config.seed) +
         ", \"seconds\": " + number(config.seconds) +
         ", \"trace\": " + (config.trace ? "1" : "0") +
         ", \"environment\": " + environment_json(git_revision) +
         ", \"params\": " + params + ", \"notes\": " + notes +
         ", \"result\": " + result_json(result, true) + "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string record_path;
  std::string git_revision = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        config.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        config.seed = std::stoull(v);
      } else if (a == "--seconds") {
        config.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        config.trace = v == "1";
      } else if (a == "--param") {
        const auto eq = v.find('=');
        if (eq == std::string::npos) usage("--param needs KEY=VALUE");
        config.params.set(v.substr(0, eq), v.substr(eq + 1));
      } else if (a == "--record") {
        record_path = v;
      } else if (a == "--git-revision") {
        git_revision = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (config.workload != "cpu-small" && config.workload != "cpu-large" &&
      config.workload != "serve-open")
    usage("unknown workload " + config.workload);
  if (config.seconds <= 0) usage("--seconds must be positive");
  if (config.trace && !record_path.empty())
    config.spans_path = record_path + ".spans.json";

  RunResult result;
  try {
    result = config.workload == "serve-open" ? run_serve(config)
                                             : run_cpu(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s run aborted: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }

  std::printf("# %s seed %llu %s, %.0f s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced", config.seconds);
  std::printf("# environment %s\n", environment_json(git_revision).c_str());
  for (const std::string& note : result.notes)
    std::printf("# %s\n", note.c_str());
  for (const std::string& why : result.failures)
    std::printf("# FAILED %s\n", why.c_str());
  std::printf("%-40s %16s %-6s %s\n", "# metric", "value", "unit", "clock");
  for (const Metric& m : result.metrics)
    std::printf("%-40s %16s %-6s %s\n", ("# " + m.name).c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.clock.c_str());
  std::printf("# failed_frac %s (%llu of %llu)\n",
              number(result.attempted > 0
                         ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 0.0)
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (!record_path.empty()) {
    std::ofstream record(record_path);
    record << record_json(config, result, git_revision);
    if (!record) std::fprintf(stderr, "warning: cannot write %s\n",
                              record_path.c_str());
  }
  std::printf("%s\n", result_json(result, false).c_str());
  std::fflush(stdout);
  return result.wrong == 0 ? 0 : 1;
}
