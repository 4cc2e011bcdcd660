// The benchmark's own tests: percentile and sample rules, the open-loop
// schedule and its lateness, the backlog test and sustained-rate ladder,
// input determinism, set-ups in child processes, and the correctness
// checks' teeth (a corrupted schedule must be rejected). Run with
// `python3 perfbench/run.py --self-test`; exits non-zero on the first
// failed expectation.
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "checks.hpp"
#include "core/rounding.hpp"
#include "dp/solver.hpp"
#include "env.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

void test_cold_set_ups() {
  // Each call runs in its own child: the parent's counter never moves, and
  // every child's figure comes back in order.
  int calls = 0;
  const std::vector<double> s =
      cold_set_ups(3, 0.0, [&] { return 0.25 + 0.5 * ++calls; });
  EXPECT(s == std::vector<double>({0.75, 0.75, 0.75}));
  EXPECT(calls == 0);
  EXPECT(cold_set_ups(0, 1.0, [] { return 1.0; }).empty());
  // The starts are spaced over the span.
  const auto start = std::chrono::steady_clock::now();
  (void)cold_set_ups(4, 0.2, [] { return 1.0; });
  EXPECT(std::chrono::steady_clock::now() - start >=
         std::chrono::milliseconds(150));
  // Every process it started, spinners included, has ended and been reaped.
  EXPECT(waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD);
  // A set-up that throws, in the child, fails the whole measurement.
  bool threw = false;
  try {
    (void)cold_set_ups(2, 0.0, []() -> double {
      throw std::runtime_error("set-up failed");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT(threw);
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(percentile(v, 50) == 50);
  EXPECT(percentile(v, 90) == 90);
  EXPECT(percentile(v, 99) == 99);
  EXPECT(percentile(v, 100) == 100);
  EXPECT(percentile({}, 50) == 0);
  EXPECT(percentile({7.0}, 99) == 7.0);
  EXPECT(median({3, 1, 2}) == 2);
  EXPECT(median({4, 1, 2, 3}) == 2.5);
  // Ten samples beyond p99 need 1000 samples; beyond p90, 100.
  EXPECT(samples_beyond(1000, 99) == 10);
  EXPECT(percentile_supported(1000, 99));
  EXPECT(!percentile_supported(999, 99));
  EXPECT(percentile_supported(100, 90));
  EXPECT(!percentile_supported(99, 90));
  EXPECT(supported_percentile(2000, 99) == 99);
  EXPECT(percentile_supported(400, supported_percentile(400, 99)));
  EXPECT(std::abs(supported_percentile(400, 99) - 97.5) < 1e-9);

  // Three windows of 1..100; a stall spikes the last one only.
  std::vector<double> w;
  for (int r = 0; r < 3; ++r)
    for (int i = 1; i <= 100; ++i) w.push_back(i);
  for (int i = 200; i < 300; ++i) w[static_cast<std::size_t>(i)] = 1000;
  EXPECT(windowed_percentile(w, 3, 99) == 99);
  EXPECT(windowed_percentile(w, 1, 99) == 1000);
  EXPECT(windowed_percentile(w, 3, 50) == 50);

  // 10 completions per second for 3 s, but the middle second stalled.
  std::vector<double> done;
  for (int i = 0; i < 10; ++i) done.push_back(0.05 + 0.1 * i);
  done.push_back(1.5);
  for (int i = 0; i < 10; ++i) done.push_back(2.05 + 0.1 * i);
  EXPECT(std::abs(windowed_rate(done, 3.0, 3) - 10.0) < 1e-9);
  EXPECT(std::abs(windowed_rate(done, 3.0, 1) - 7.0) < 1e-9);
}

void test_open_loop_schedule() {
  const auto a = poisson_due_times(42, 200.0, 10.0);
  const auto b = poisson_due_times(42, 200.0, 10.0);
  const auto c = poisson_due_times(43, 200.0, 10.0);
  const auto d = poisson_due_times(42, 400.0, 10.0);
  EXPECT(a == b);  // due times are fixed by seed and rate
  EXPECT(a != c);
  EXPECT(a != d);
  // 2000 expected arrivals; Poisson sd ~45.
  EXPECT(std::abs(static_cast<double>(a.size()) - 2000.0) < 225.0);
  EXPECT(std::abs(static_cast<double>(d.size()) - 4000.0) < 320.0);
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i)
    increasing = increasing && a[i] > a[i - 1];
  EXPECT(increasing);
  EXPECT(!a.empty() && a.front() >= 0.0 && a.back() < 10.0);
  // Lateness is the send time minus the due time.
  const auto late = lateness_ms({0.010, 0.020, 0.030}, {0.010, 0.0215, 0.040});
  EXPECT(late.size() == 3);
  EXPECT(std::abs(late[0]) < 1e-9);
  EXPECT(std::abs(late[1] - 1.5) < 1e-9);
  EXPECT(std::abs(late[2] - 10.0) < 1e-9);
}

void test_ladder() {
  std::vector<std::size_t> steady(300, 2);
  for (std::size_t i = 0; i < steady.size(); i += 7) steady[i] = 5;
  std::vector<std::size_t> growing;
  for (std::size_t i = 0; i < 300; ++i) growing.push_back(i / 10);
  EXPECT(!backlog_grows(steady, 3));
  EXPECT(backlog_grows(growing, 3));
  EXPECT(!backlog_grows({}, 3));

  const RateStep low{100, 99.5, 20, false, 0};
  const RateStep mid{150, 149.0, 40, false, 0};
  const RateStep slow{200, 190.0, 250, false, 0};   // tail over the limit
  const RateStep piled{250, 200.0, 80, true, 0};    // backlog grew
  const RateStep refused{300, 260.0, 60, false, 3}; // requests refused
  EXPECT(sustained_rate({low, mid, slow, piled, refused}, 100.0) == 149.0);
  EXPECT(sustained_rate({mid, low}, 100.0) == 149.0);  // order-free
  EXPECT(sustained_rate({slow}, 100.0) == 0.0);
  EXPECT(sustained_rate({slow}, 300.0) == 190.0);
  EXPECT(sustained_rate({}, 100.0) == 0.0);
}

Params small_params() {
  Params p;
  const std::pair<const char*, const char*> values[] = {
      {"pool", "40"}, {"n_min", "20"}, {"n_max", "60"}, {"m_min", "4"},
      {"m_max", "8"}, {"min_jobs_per_machine", "5"}, {"bimodal_share", "0.5"},
      {"uniform_hi", "100"}, {"bimodal_short_hi", "20"},
      {"bimodal_long_lo", "60"}, {"bimodal_long_hi", "100"},
      {"bimodal_long_share", "0.3"}, {"epsilon", "0.3"},
      {"dup_share", "0.25"}, {"dup_window", "8"}, {"work_max", "300000"}};
  for (const auto& [k, v] : values) p.set(k, v);
  return p;
}

void test_inputs() {
  const Params p = small_params();
  const auto a = make_cpu_small(p, 5);
  const auto b = make_cpu_small(p, 5);
  const auto c = make_cpu_small(p, 6);
  EXPECT(a.size() == 40);
  bool same = a.size() == b.size();
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && same; ++i) {
    same = a[i].instance.times == b[i].instance.times &&
           a[i].instance.machines == b[i].instance.machines;
    differs = differs || a[i].instance.times != c[i].instance.times;
  }
  EXPECT(same);
  EXPECT(differs);
  for (const SolveCase& s : a)
    EXPECT(static_cast<std::int64_t>(s.instance.jobs()) >=
           5 * s.instance.machines);

  const RequestStream r = make_serve_requests(p, 9, 400);
  std::size_t dups = 0;
  for (std::size_t i = 0; i < r.instances.size(); ++i) {
    if (!r.is_dup[i]) continue;
    ++dups;
    bool found = false;  // a duplicate repeats an earlier request exactly
    for (std::size_t j = 0; j < i && !found; ++j)
      found = !r.is_dup[j] && r.instances[j].times == r.instances[i].times;
    EXPECT(found);
  }
  EXPECT(dups > 60 && dups < 140);  // ~25% of 400

  bool threw = false;
  try {
    (void)p.num("no_such_key");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void test_checks_reject_corruption() {
  const auto cases = make_cpu_small(small_params(), 11);
  const pcmax::dp::LevelBucketSolver solver;
  pcmax::PtasOptions options;
  options.epsilon = 0.3;
  const pcmax::Instance& instance = cases.front().instance;
  const std::int64_t k = pcmax::k_for_epsilon(options.epsilon);
  const pcmax::PtasResult good = pcmax::solve_ptas(instance, solver, options);
  EXPECT(check_ptas(instance, good, k).empty());

  pcmax::PtasResult off_machine = good;  // a job on a machine that is not
  off_machine.schedule.assignment[0] = instance.machines;
  EXPECT(!check_ptas(instance, off_machine, k).empty());

  pcmax::PtasResult piled = good;  // every job on one machine
  for (auto& machine : piled.schedule.assignment) machine = 0;
  EXPECT(!check_ptas(instance, piled, k).empty());
  piled.achieved_makespan = instance.total_time();  // honest but too long
  EXPECT(!check_ptas(instance, piled, k).empty());

  pcmax::PtasResult missing = good;  // a job left out
  missing.schedule.assignment.pop_back();
  EXPECT(!check_ptas(instance, missing, k).empty());

  pcmax::serve::SolveResponse response;
  response.result.schedule = good.schedule;
  response.result.achieved_makespan = good.achieved_makespan;
  response.result.certificate_tier = pcmax::CertificateTier::kAPriori;
  EXPECT(check_response(instance, response).empty());
  pcmax::serve::SolveResponse untiered = response;
  untiered.result.certificate_tier = pcmax::CertificateTier::kNone;
  EXPECT(!check_response(instance, untiered).empty());
  pcmax::serve::SolveResponse corrupted = response;
  corrupted.result.schedule.assignment[0] = -1;
  EXPECT(!check_response(instance, corrupted).empty());
  EXPECT(same_result(response.result, untiered.result) == false);
  EXPECT(!same_result(response.result, corrupted.result));
  EXPECT(same_result(response.result, response.result));
}

}  // namespace

int main() {
  test_cold_set_ups();  // first: it forks, so no thread may have started
  test_percentiles();
  test_open_loop_schedule();
  test_ladder();
  test_inputs();
  test_checks_reject_corruption();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
