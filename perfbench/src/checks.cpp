#include "checks.hpp"

#include <exception>

#include "core/bounds.hpp"
#include "core/certificate.hpp"

namespace perfbench {

namespace {

/// certify() validates the schedule; an invalid one throws.
std::string certified_makespan(const pcmax::Instance& instance,
                               const pcmax::Schedule& schedule,
                               std::int64_t reported) {
  try {
    const pcmax::Certificate cert = pcmax::certify(instance, schedule);
    if (cert.makespan != reported)
      return "makespan " + std::to_string(cert.makespan) + " != reported " +
             std::to_string(reported);
  } catch (const std::exception& e) {
    return std::string("certify rejected the schedule: ") + e.what();
  }
  return {};
}

}  // namespace

std::string check_ptas(const pcmax::Instance& instance,
                       const pcmax::PtasResult& result, std::int64_t k) {
  if (std::string bad = certified_makespan(instance, result.schedule,
                                           result.achieved_makespan);
      !bad.empty())
    return bad;
  if (result.best_target < pcmax::makespan_lower_bound(instance))
    return "T* below the lower bound";
  if (!pcmax::within_ptas_guarantee(result.achieved_makespan,
                                    result.best_target, k))
    return "makespan outside (1 + 1/k) T*";
  return {};
}

std::string check_response(const pcmax::Instance& instance,
                           const pcmax::serve::SolveResponse& r) {
  if (!r.ok()) return "status " + r.status.to_string();
  if (std::string bad = certified_makespan(instance, r.result.schedule,
                                           r.result.achieved_makespan);
      !bad.empty())
    return bad;
  if (r.result.certificate_tier == pcmax::CertificateTier::kNone)
    return "no certificate tier";
  return {};
}

bool same_result(const pcmax::ResilientResult& a,
                 const pcmax::ResilientResult& b) {
  return a.status.code() == b.status.code() &&
         a.schedule.assignment == b.schedule.assignment &&
         a.achieved_makespan == b.achieved_makespan && a.engine == b.engine &&
         a.k == b.k && a.bound_num == b.bound_num &&
         a.bound_den == b.bound_den && a.degraded == b.degraded &&
         a.certificate_tier == b.certificate_tier;
}

}  // namespace perfbench
