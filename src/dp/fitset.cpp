#include "dp/fitset.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <type_traits>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

namespace {

/// Largest coordinate uint16_t columns hold: one below their sentinel.
constexpr std::int64_t kNarrowMax = 0xFFFE;

/// Largest level drop the per-level skip table is built for.
constexpr std::int64_t kDenseMaxDrop = 1 << 16;

}  // namespace

FitSet::FitSet(std::span<const std::int64_t> rows, std::size_t dims)
    : dims_(dims) {
  PCMAX_EXPECTS(dims >= 1);
  PCMAX_EXPECTS(dims <= 64);
  PCMAX_EXPECTS(rows.size() % dims == 0);
  size_ = rows.size() / dims;
  PCMAX_EXPECTS(size_ <= 0xFFFFFFFFull);
  for (const auto x : rows) PCMAX_EXPECTS(x >= 0);
  // Per-build aggregates only: the fits scan itself is the DP's innermost
  // loop and must stay untouched by instrumentation.
  obs::count("fitset.builds");
  obs::count("fitset.rows", size_);
  obs::observe("fitset.rows_per_build", static_cast<std::int64_t>(size_));

  std::vector<std::int64_t> drops(size_, 0);
  for (std::size_t i = 0; i < size_; ++i)
    for (std::size_t j = 0; j < dims_; ++j)
      drops[i] += rows[i * dims_ + j];
  max_drop_ = size_ == 0 ? 0 : *std::max_element(drops.begin(), drops.end());

  // Descending drop; original order breaks ties so the scan order is
  // deterministic and stable across rebuilds.
  orig_.resize(size_);
  std::iota(orig_.begin(), orig_.end(), 0u);
  std::stable_sort(orig_.begin(), orig_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return drops[a] > drops[b];
                   });

  max_coord_.assign(dims_, 0);
  for (std::size_t i = 0; i < size_; ++i)
    for (std::size_t j = 0; j < dims_; ++j)
      max_coord_[j] = std::max(max_coord_[j], rows[i * dims_ + j]);

  // Transpose into dimension-major columns in sorted order, each padded to
  // a whole number of blocks with a sentinel no tested cap reaches.
  stride_ = (size_ + kBlock - 1) / kBlock * kBlock;
  const std::int64_t widest =
      *std::max_element(max_coord_.begin(), max_coord_.end());
  const auto transpose = [&](auto& soa) {
    using Col = typename std::remove_reference_t<decltype(soa)>::value_type;
    soa.assign(stride_ * dims_, std::numeric_limits<Col>::max());
    for (std::size_t pos = 0; pos < size_; ++pos)
      for (std::size_t j = 0; j < dims_; ++j)
        soa[j * stride_ + pos] =
            static_cast<Col>(rows[orig_[pos] * dims_ + j]);
  };
  if (widest <= kNarrowMax)
    transpose(narrow_);
  else
    transpose(wide_);

  // begin_at_drop_[l]: first sorted position whose drop is <= l — i.e. the
  // number of rows with drop > l, since positions are sorted descending.
  // Drops too large for a table (heavy knapsack items) are binary-searched.
  drop_at_.resize(size_);
  for (std::size_t pos = 0; pos < size_; ++pos) drop_at_[pos] = drops[orig_[pos]];
  if (max_drop_ <= kDenseMaxDrop) {
    begin_at_drop_.resize(static_cast<std::size_t>(max_drop_) + 1);
    std::size_t pos = size_;
    for (std::int64_t l = 0; l <= max_drop_; ++l) {
      while (pos > 0 && drop_at_[pos - 1] <= l) --pos;
      begin_at_drop_[static_cast<std::size_t>(l)] = pos;
    }
  }
}

}  // namespace pcmax::dp
