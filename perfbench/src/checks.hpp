// Correctness checks applied to every answer the benchmark receives. Each
// returns an empty string when the answer is correct and the reason
// otherwise; a non-empty reason counts as a failed operation.
#pragma once

#include <cstdint>
#include <string>

#include "core/instance.hpp"
#include "core/ptas.hpp"
#include "core/resilient.hpp"
#include "serve/request.hpp"

namespace perfbench {

/// A PTAS/EPTAS result at accuracy k: the schedule passes certify, its
/// makespan is the reported one, T* is at least the lower bound, and
/// within_ptas_guarantee(makespan, T*, k) holds.
[[nodiscard]] std::string check_ptas(const pcmax::Instance& instance,
                                     const pcmax::PtasResult& result,
                                     std::int64_t k);

/// A serve response: status ok, the schedule passes certify with the
/// reported makespan, and the certificate tier is not kNone.
[[nodiscard]] std::string check_response(const pcmax::Instance& instance,
                                         const pcmax::serve::SolveResponse& r);

/// The serve determinism contract: same status, schedule, makespan,
/// engine, k, bound and degradation.
[[nodiscard]] bool same_result(const pcmax::ResilientResult& a,
                               const pcmax::ResilientResult& b);

}  // namespace perfbench
