#include "dp/mixed_radix.hpp"

#include <algorithm>

#include "util/checked_math.hpp"
#include "util/contracts.hpp"

namespace pcmax::dp {

MixedRadix::MixedRadix(std::vector<std::int64_t> extents)
    : extents_(std::move(extents)) {
  PCMAX_EXPECTS(!extents_.empty());
  for (const auto e : extents_) PCMAX_EXPECTS(e >= 1);

  strides_.assign(extents_.size(), 1);
  size_ = 1;
  for (std::size_t i = extents_.size(); i-- > 0;) {
    strides_[i] = size_;
    size_ = util::checked_mul(size_, static_cast<std::uint64_t>(extents_[i]));
    max_level_ += extents_[i] - 1;
  }
}

std::uint64_t MixedRadix::flatten(std::span<const std::int64_t> v) const {
  PCMAX_EXPECTS(v.size() == extents_.size());
  std::uint64_t index = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    PCMAX_EXPECTS(v[i] >= 0 && v[i] < extents_[i]);
    index += static_cast<std::uint64_t>(v[i]) * strides_[i];
  }
  return index;
}

void MixedRadix::unflatten(std::uint64_t index,
                           std::span<std::int64_t> out) const {
  PCMAX_EXPECTS(index < size_);
  PCMAX_EXPECTS(out.size() == extents_.size());
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    out[i] = static_cast<std::int64_t>(index / strides_[i]);
    index %= strides_[i];
  }
}

void MixedRadix::next_in_level(std::span<std::int64_t> v) const {
  // The rightmost coordinate that can grow while a later one gives up a
  // unit; everything after it is already the largest arrangement of its sum.
  std::size_t i = v.size() - 1;
  std::int64_t suffix = v[i];
  while (i-- > 0) {
    if (suffix > 0 && v[i] + 1 < extents_[i]) break;
    suffix += v[i];
  }
  PCMAX_EXPECTS(i < v.size());  // v was not the level's last cell
  ++v[i];
  // The rest of the sum in the smallest arrangement: pushed to the end.
  std::int64_t rest = suffix - 1;
  for (std::size_t j = v.size(); j-- > i + 1;) {
    v[j] = std::min(rest, extents_[j] - 1);
    rest -= v[j];
  }
}

std::vector<std::int64_t> MixedRadix::unflatten(std::uint64_t index) const {
  std::vector<std::int64_t> v(dims());
  unflatten(index, v);
  return v;
}

std::int64_t MixedRadix::level_of(std::uint64_t index) const {
  PCMAX_EXPECTS(index < size_);
  std::int64_t level = 0;
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    level += static_cast<std::int64_t>(index / strides_[i]);
    index %= strides_[i];
  }
  return level;
}

bool MixedRadix::contains(std::span<const std::int64_t> v) const noexcept {
  if (v.size() != extents_.size()) return false;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] < 0 || v[i] >= extents_[i]) return false;
  return true;
}

LevelBuckets::LevelBuckets(const MixedRadix& radix) {
  const auto levels = static_cast<std::size_t>(radix.max_level()) + 1;
  std::vector<std::uint64_t> counts(levels, 0);

  // Counting sort by level. Levels are computed incrementally by walking the
  // coordinate odometer instead of dividing per cell; this is O(size) total.
  const auto& extents = radix.extents();
  std::vector<std::int64_t> coord(radix.dims(), 0);
  std::int64_t level = 0;
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    ++counts[static_cast<std::size_t>(level)];
    // Advance odometer (row-major: last coordinate fastest).
    for (std::size_t i = radix.dims(); i-- > 0;) {
      if (++coord[i] < extents[i]) {
        ++level;
        break;
      }
      level -= extents[i] - 1;
      coord[i] = 0;
    }
  }

  offsets_.assign(levels + 1, 0);
  for (std::size_t l = 0; l < levels; ++l)
    offsets_[l + 1] = offsets_[l] + counts[l];

  ids_.resize(radix.size());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  std::fill(coord.begin(), coord.end(), 0);
  level = 0;
  for (std::uint64_t id = 0; id < radix.size(); ++id) {
    ids_[cursor[static_cast<std::size_t>(level)]++] = id;
    for (std::size_t i = radix.dims(); i-- > 0;) {
      if (++coord[i] < extents[i]) {
        ++level;
        break;
      }
      level -= extents[i] - 1;
      coord[i] = 0;
    }
  }
}

std::span<const std::uint64_t> LevelBuckets::cells_at(
    std::int64_t level) const {
  PCMAX_EXPECTS(level >= 0 && level < levels());
  const auto l = static_cast<std::size_t>(level);
  return {ids_.data() + offsets_[l], ids_.data() + offsets_[l + 1]};
}

}  // namespace pcmax::dp
