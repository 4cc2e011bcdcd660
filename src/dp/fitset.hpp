// The shared dependency-stencil kernel: a set of non-negative coordinate
// rows (machine configurations for the PTAS DP, item weight vectors for the
// knapsack DP) stored in a structure-of-arrays hot layout, with the
// componentwise fits test (s <= v) every DP engine's inner loop spends its
// time in. One implementation serves all engines so the differential fuzzer
// cross-checks the optimized path everywhere at once.
//
// Structural optimizations, all exact:
//  * rows are sorted by descending level drop (sum of coordinates) and
//    bucketed by drop, so a cell at anti-diagonal level l only scans rows
//    with drop <= l — rows that remove more jobs than the cell holds can
//    never fit and are skipped without a comparison;
//  * a per-dimension maximum-coordinate prefilter: dimensions where the
//    cell's coordinate already reaches the set-wide maximum cannot reject
//    any row, so the fits test only touches the remaining dimensions;
//  * narrow columns: when every coordinate is at most 0xFFFE (always, for
//    machine configurations: a coordinate counts the jobs of one class on
//    one machine), the columns are uint16_t, a quarter of the memory
//    traffic of int64_t. Wider inputs
//    (knapsack item weights can exceed 65 534) get int64_t columns. The
//    type is chosen once, in the constructor, and both run through the
//    same scan body;
//  * a block-bitmask scan: 32 rows at a time, the per-dimension tests
//    col <= cap are AND-ed into a byte mask by fixed-width loops the
//    compiler vectorizes at baseline x86-64, the mask is packed into a
//    uint32_t, and fn is called on its set bits in ascending order.
//
// Every column is padded to a multiple of the block width with a sentinel
// (0xFFFF, or INT64_MAX for wide columns) that never fits: a dimension is
// only tested when the cell's coordinate is below that dimension's maximum,
// so its cap is below every sentinel. When no dimension is tested, the rows
// past size() are masked off explicitly. Rows are still reported in sorted
// position order and fn's early stop returns at the same row, so the visit
// order is exactly that of a row-at-a-time scan.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace pcmax::dp {

class FitSet {
 public:
  /// Rows per block of the bitmask scan; columns are padded to a multiple.
  static constexpr std::size_t kBlock = 32;

  FitSet() = default;

  /// `rows` holds `size` rows of `dims` coordinates each, flattened
  /// row-major in the caller's original order; every coordinate must be
  /// >= 0. for_each_fitting reports rows by their original index, so
  /// callers keep addressing their own row-indexed data.
  FitSet(std::span<const std::int64_t> rows, std::size_t dims);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }

  /// True when the columns are stored as uint16_t (every coordinate is at
  /// most 0xFFFE); false for int64_t columns.
  [[nodiscard]] bool narrow() const noexcept { return wide_.empty(); }

  /// Largest level drop (row coordinate sum) over the set; 0 when empty.
  [[nodiscard]] std::int64_t max_drop() const noexcept { return max_drop_; }

  /// Maximum coordinate of any row in dimension j.
  [[nodiscard]] std::int64_t max_coord(std::size_t j) const noexcept {
    return max_coord_[j];
  }

  /// Visits every row s with s <= v componentwise, in descending-level-drop
  /// order, calling fn(original_row_index); fn returns true to continue or
  /// false to stop the scan. `level` must be the coordinate sum of `v` (the
  /// cell's anti-diagonal level); rows with drop > level are skipped
  /// wholesale, and a cell at level 0 visits nothing. dims() must be <= 64.
  template <typename Fn>
  void for_each_fitting(std::span<const std::int64_t> v, std::int64_t level,
                        Fn&& fn) const {
    if (size_ == 0 || level <= 0) return;
    if (narrow())
      scan(narrow_.data(), v, level, fn);
    else
      scan(wide_.data(), v, level, fn);
  }

 private:
  template <typename Col, typename Fn>
  void scan(const Col* soa, std::span<const std::int64_t> v,
            std::int64_t level, Fn& fn) const {
    // Prefilter: only dimensions whose cell coordinate is below the
    // set-wide maximum can reject a row. Such a cap is below the maximum,
    // so it fits in Col and is below the padding sentinel.
    const Col* cols[64];
    Col caps[64];
    std::size_t checked = 0;
    for (std::size_t j = 0; j < dims_; ++j) {
      if (v[j] < max_coord_[j]) {
        cols[checked] = soa + j * stride_;
        caps[checked] = static_cast<Col>(v[j]);
        ++checked;
      }
    }
    const std::size_t begin = begin_at(level);
    for (std::size_t base = begin - begin % kBlock; base < size_;
         base += kBlock) {
      std::uint8_t ok[kBlock];
      for (std::size_t i = 0; i < kBlock; ++i) ok[i] = 1;
      for (std::size_t t = 0; t < checked; ++t) {
        const Col* col = cols[t] + base;
        const Col cap = caps[t];
        for (std::size_t i = 0; i < kBlock; ++i)
          ok[i] &= static_cast<std::uint8_t>(col[i] <= cap);
      }
      std::uint32_t bits = pack_mask(ok);
      if (base < begin) bits &= ~std::uint32_t{0} << (begin - base);
      if (size_ - base < kBlock)
        bits &= (std::uint32_t{1} << (size_ - base)) - 1;
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t pos = base + static_cast<std::size_t>(
                                           std::countr_zero(bits));
        if (!fn(static_cast<std::size_t>(orig_[pos]))) return;
      }
    }
  }

  /// First sorted position whose drop is <= level.
  std::size_t begin_at(std::int64_t level) const noexcept {
    if (level >= max_drop_) return 0;
    if (!begin_at_drop_.empty())
      return begin_at_drop_[static_cast<std::size_t>(level)];
    return static_cast<std::size_t>(
        std::partition_point(drop_at_.begin(), drop_at_.end(),
                             [&](std::int64_t d) { return d > level; }) -
        drop_at_.begin());
  }

  /// Packs kBlock bytes of 0/1 into a mask, byte i to bit i: each group of
  /// eight bytes, read as a little-endian word, is gathered into its top
  /// byte by one multiplication (every partial product lands on its own
  /// bit, so nothing carries).
  static std::uint32_t pack_mask(const std::uint8_t* ok) noexcept {
    static_assert(std::endian::native == std::endian::little,
                  "pack_mask reads byte i of a word as bits 8i..8i+7");
    std::uint32_t bits = 0;
    for (std::size_t g = 0; g < kBlock / 8; ++g) {
      std::uint64_t word;
      std::memcpy(&word, ok + 8 * g, sizeof word);
      bits |= static_cast<std::uint32_t>(
                  (word * 0x0102040810204080ull) >> 56)
              << (8 * g);
    }
    return bits;
  }

  std::size_t dims_ = 0;
  std::size_t size_ = 0;
  std::size_t stride_ = 0;  // column length: size_ padded to kBlock
  std::vector<std::uint16_t> narrow_;  // dims_ columns of stride_ entries,
  std::vector<std::int64_t> wide_;     // exactly one of the two non-empty
  std::vector<std::uint32_t> orig_;    // sorted position -> original row
  std::vector<std::int64_t> drop_at_;  // sorted position -> level drop
  std::vector<std::size_t> begin_at_drop_;  // first position with drop <= l,
                                            // empty for very large drops
  std::vector<std::int64_t> max_coord_;  // per dimension
  std::int64_t max_drop_ = 0;
};

}  // namespace pcmax::dp
