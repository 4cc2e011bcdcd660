// The run's environment record: what the numbers were measured on. The
// benchmark reads the environment but never sets any of it, so a datapoint
// taken under OMP_NUM_THREADS=1 always says so.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// JSON object: nproc, cpu_model, build_type, compiler, git_revision (as
/// given by the caller) and every OMP_* / GOMP_* variable present.
[[nodiscard]] std::string environment_json(const std::string& git_revision);

/// Online processors.
[[nodiscard]] int nproc();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds over which a run spaces its set-ups.
inline constexpr double kSetUpSpanS = 3.0;

/// Runs `set_up` once in each of `reps` child processes forked one after
/// another, and returns the seconds each child's call returned. Call it
/// before this process starts any thread (OpenMP's team included): each
/// child then starts its threads cold, as a newly launched program does.
/// The starts are spaced evenly over `span_s` seconds, so that a short burst
/// of load on the host delays only a few of them. Between them this process
/// spins rather than sleeps: on a virtual machine a core left idle can take
/// milliseconds to wake, which would swamp a set-up of a few milliseconds.
/// Throws if a child fails or reports nothing.
[[nodiscard]] std::vector<double> cold_set_ups(
    int reps, double span_s, const std::function<double()>& set_up);

/// JSON string literal for `text`.
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace perfbench
