// The traced run's span recorder. Spans are recorded from the benchmark's
// own code around each call into a module's public functions: name (the
// layer), start, end, parent span and request id. They stay in memory and
// are summarized, and written out as JSON, when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::int64_t request = -1;
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open span; returns its index.
  std::int32_t open(const char* name, std::int64_t request = -1) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0,
                          stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Records an already-timed span under `parent` (a span index, or -1
  /// for a root); returns its index.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::int64_t request = -1) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return index;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Total duration per span name, in nanoseconds.
  [[nodiscard]] std::map<std::string, double> total_ns() const {
    std::map<std::string, double> totals;
    for (const Span& s : spans_)
      totals[s.name] += static_cast<double>(s.end_ns - s.start_ns);
    return totals;
  }

  /// Number of spans per name.
  [[nodiscard]] std::map<std::string, std::size_t> counts() const {
    std::map<std::string, std::size_t> n;
    for (const Span& s : spans_) ++n[s.name];
    return n;
  }

  /// Share of root-span time that no child span covers: the self time of
  /// every span that has children, over the summed root durations.
  [[nodiscard]] double unattributed_frac() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    std::vector<bool> has_child(spans_.size(), false);
    double root_ns = 0.0;
    for (const Span& s : spans_) {
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent < 0) {
        root_ns += d;
      } else {
        child_ns[static_cast<std::size_t>(s.parent)] += d;
        has_child[static_cast<std::size_t>(s.parent)] = true;
      }
    }
    double self_ns = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (has_child[i])
        self_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
                   child_ns[i];
    return root_ns > 0.0 ? self_ns / root_ns : 0.0;
  }

  /// Writes the first `max_spans` spans as one JSON array of [name,
  /// start_ns, end_ns, parent, request] rows, times relative to the
  /// earliest start.
  void write_json(std::ostream& out, std::size_t max_spans) const {
    const std::size_t n = std::min(max_spans, spans_.size());
    std::int64_t origin = n == 0 ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < n; ++i)
      origin = std::min(origin, spans_[i].start_ns);
    out << "[";
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "[\"" << s.name << "\", "
          << s.start_ns - origin << ", " << s.end_ns - origin << ", "
          << s.parent << ", " << s.request << "]";
    }
    out << "]\n";
  }

  /// Summed duration of root spans, in nanoseconds.
  [[nodiscard]] double root_ns() const {
    double total = 0.0;
    for (const Span& s : spans_)
      if (s.parent < 0) total += static_cast<double>(s.end_ns - s.start_ns);
    return total;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name,
             std::int64_t request = -1)
      : recorder_(recorder), index_(recorder.open(name, request)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { recorder_.close(index_); }

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

/// Host cost of recording one span (open + close), measured on a scratch
/// recorder; the traced run's overhead share is spans x this cost.
[[nodiscard]] inline double span_cost_ns() {
  constexpr int kSpans = 20000;
  SpanRecorder scratch;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kSpans; ++i) ScopedSpan span(scratch, "calibrate");
  return static_cast<double>(now_ns() - start) / kSpans;
}

}  // namespace perfbench
