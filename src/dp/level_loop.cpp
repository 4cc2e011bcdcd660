#include "dp/level_loop.hpp"

#include <omp.h>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

int resolve_threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

bool level_runs_inline(std::uint64_t count, std::uint64_t chunk,
                       std::uint64_t work, int threads) {
  PCMAX_EXPECTS(chunk >= 1);
  // A level of at most one chunk keeps one thread busy while the rest of
  // the team wakes only to wait at the barrier.
  const bool run_inline =
      threads <= 1 || count <= chunk || work < kParallelWorkFloor;
  if (run_inline) {
    obs::count("dp.levels.inline");
  } else {
    obs::count("dp.levels.parallel");
    obs::observe("dp.levels.team_threads", threads);
  }
  return run_inline;
}

}  // namespace pcmax::dp
