// Pure statistics of the benchmark: percentiles with their sample rule,
// medians, the open-loop arrival schedule, the backlog-growth test and the
// sustained-rate ladder. Everything here is deterministic and covered by
// tests/selftest.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile's rank.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// A percentile is reported only with at least ten samples beyond it.
[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// The highest percentile, up to `p_max`, that n samples support.
[[nodiscard]] inline double supported_percentile(std::size_t n, double p_max) {
  if (n <= 10) return 50.0;
  const double p = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::min(p_max, p);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The p-th percentile of each of `windows` consecutive, equal chunks of
/// `values` (in arrival order); one chunk when there are fewer values than
/// windows.
[[nodiscard]] inline std::vector<double> window_percentiles(
    const std::vector<double>& values, std::size_t windows, double p) {
  if (windows <= 1 || values.size() < windows) return {percentile(values, p)};
  std::vector<double> per_window;
  const std::size_t n = values.size();
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first =
        values.begin() + static_cast<std::ptrdiff_t>(w * n / windows);
    const auto last =
        values.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows);
    per_window.push_back(percentile(std::vector<double>(first, last), p));
  }
  return per_window;
}

/// Median of window_percentiles: a transient stall moves one window's
/// percentile, not the reported one. One window is the plain percentile.
[[nodiscard]] inline double windowed_percentile(
    const std::vector<double>& values, std::size_t windows, double p) {
  return median(window_percentiles(values, windows, p));
}

/// Completions per second in each of `windows` equal slices of
/// [0, elapsed_s); `done_s` are completion times in seconds from the start.
[[nodiscard]] inline std::vector<double> window_rates(
    const std::vector<double>& done_s, double elapsed_s, std::size_t windows) {
  if (elapsed_s <= 0.0) return {0.0};
  windows = std::max<std::size_t>(windows, 1);
  std::vector<double> counts(windows, 0.0);
  for (const double t : done_s) {
    const auto w = static_cast<std::size_t>(t / elapsed_s *
                                            static_cast<double>(windows));
    counts[std::min(w, windows - 1)] += 1.0;
  }
  for (double& c : counts) c /= elapsed_s / static_cast<double>(windows);
  return counts;
}

/// Median of window_rates; one window is completions / elapsed_s.
[[nodiscard]] inline double windowed_rate(const std::vector<double>& done_s,
                                          double elapsed_s,
                                          std::size_t windows) {
  return median(window_rates(done_s, elapsed_s, windows));
}

/// splitmix64: the benchmark's only source of randomness, so its inputs are
/// the same on every platform for a given seed.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1).
[[nodiscard]] inline double unit_uniform(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Uniform integer in [lo, hi].
[[nodiscard]] inline std::int64_t uniform_int(std::uint64_t& state,
                                              std::int64_t lo,
                                              std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(splitmix64(state) % span);
}

/// Open-loop Poisson arrivals: due times (seconds from the phase start) of
/// every request in [0, duration_s), fixed by `seed` and `rate_per_s`.
[[nodiscard]] inline std::vector<double> poisson_due_times(
    std::uint64_t seed, double rate_per_s, double duration_s) {
  std::vector<double> due;
  std::uint64_t state = seed;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-unit_uniform(state)) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

/// How late each request was sent against its due time, in milliseconds
/// (both times in seconds from the phase start).
[[nodiscard]] inline std::vector<double> lateness_ms(
    const std::vector<double>& due_s, const std::vector<double>& sent_s) {
  std::vector<double> late;
  late.reserve(due_s.size());
  for (std::size_t i = 0; i < due_s.size() && i < sent_s.size(); ++i)
    late.push_back((sent_s[i] - due_s[i]) * 1e3);
  return late;
}

/// True when the backlog (requests submitted but not answered, sampled at
/// every submission of one rate step) grows instead of fluctuating: the
/// mean of the last third exceeds twice the mean of the first third plus
/// one request per worker.
[[nodiscard]] inline bool backlog_grows(
    const std::vector<std::size_t>& outstanding, int workers) {
  const std::size_t third = outstanding.size() / 3;
  if (third == 0) return false;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    first += static_cast<double>(outstanding[i]);
    last += static_cast<double>(outstanding[outstanding.size() - 1 - i]);
  }
  first /= static_cast<double>(third);
  last /= static_cast<double>(third);
  return last > 2.0 * first + static_cast<double>(workers);
}

/// One step of the sustained-rate ladder.
struct RateStep {
  double rate_per_s = 0.0;       ///< offered (scheduled) rate
  double completed_per_s = 0.0;  ///< measured response rate
  double tail_ms = 0.0;          ///< tail latency from due time
  bool backlog_grew = false;
  std::size_t failed = 0;        ///< failed or refused requests
};

/// A step is sustained when its tail latency meets the limit, its backlog
/// does not grow and no request in it failed or was refused.
[[nodiscard]] inline bool sustained(const RateStep& step, double limit_ms) {
  return step.tail_ms <= limit_ms && !step.backlog_grew && step.failed == 0;
}

/// The measured response rate of the highest offered rate that is
/// sustained; 0 when no step is.
[[nodiscard]] inline double sustained_rate(const std::vector<RateStep>& steps,
                                           double limit_ms) {
  const RateStep* best = nullptr;
  for (const RateStep& s : steps)
    if (sustained(s, limit_ms) &&
        (best == nullptr || s.rate_per_s > best->rate_per_s))
      best = &s;
  return best == nullptr ? 0.0 : best->completed_per_s;
}

}  // namespace perfbench
