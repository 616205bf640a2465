// Dense bit matrix used for word-parallel reachability computations.
//
// Transitive reduction (§3.1 step 1 of the paper) on a 48k-node dag such as
// SDSS needs per-node reachability sets (over the dag's joins); a packed
// bit matrix makes the dominant operation — OR-ing one node's reachability
// row into another's — run 64 columns per machine word.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace prio::util {

/// A rows x cols bit matrix packed into 64-bit words, row-major.
class BitMatrix {
 public:
  BitMatrix() = default;

  /// Creates a zeroed rows x cols matrix.
  BitMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64),
        bits_(rows * words_per_row_, 0) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Approximate heap footprint in bytes (used by memory-budget guards).
  [[nodiscard]] std::size_t byteSize() const noexcept {
    return bits_.size() * sizeof(std::uint64_t);
  }

  void set(std::size_t r, std::size_t c) {
    PRIO_CHECK(r < rows_ && c < cols_);
    bits_[r * words_per_row_ + c / 64] |= (std::uint64_t{1} << (c % 64));
  }

  void clearBit(std::size_t r, std::size_t c) {
    PRIO_CHECK(r < rows_ && c < cols_);
    bits_[r * words_per_row_ + c / 64] &= ~(std::uint64_t{1} << (c % 64));
  }

  [[nodiscard]] bool test(std::size_t r, std::size_t c) const {
    PRIO_CHECK(r < rows_ && c < cols_);
    return (bits_[r * words_per_row_ + c / 64] >>
            (c % 64)) & std::uint64_t{1};
  }

  /// dst |= src, word-parallel over whole rows.
  void orRowInto(std::size_t dst, std::size_t src) {
    PRIO_CHECK(dst < rows_ && src < rows_);
    std::uint64_t* d = &bits_[dst * words_per_row_];
    const std::uint64_t* s = &bits_[src * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) d[w] |= s[w];
  }

  /// dst |= src restricted to the word range [word_begin, word_end) of
  /// each row — the cache-blocked tile primitive: transitiveReduction
  /// processes long rows one column tile at a time so the row segments
  /// being OR-ed together stay resident in cache across the pass.
  void orRowRangeInto(std::size_t dst, std::size_t src,
                      std::size_t word_begin, std::size_t word_end) {
    PRIO_CHECK(dst < rows_ && src < rows_ && word_end <= words_per_row_);
    std::uint64_t* d = &bits_[dst * words_per_row_];
    const std::uint64_t* s = &bits_[src * words_per_row_];
    for (std::size_t w = word_begin; w < word_end; ++w) d[w] |= s[w];
  }

  [[nodiscard]] std::size_t wordsPerRow() const noexcept {
    return words_per_row_;
  }

  /// Number of set bits in a row.
  [[nodiscard]] std::size_t rowPopcount(std::size_t r) const {
    PRIO_CHECK(r < rows_);
    std::size_t total = 0;
    const std::uint64_t* row = &bits_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      total += static_cast<std::size_t>(__builtin_popcountll(row[w]));
    }
    return total;
  }

  /// True iff any bit set in row `r` is also set in row `other`.
  [[nodiscard]] bool rowsIntersect(std::size_t r, std::size_t other) const {
    PRIO_CHECK(r < rows_ && other < rows_);
    const std::uint64_t* a = &bits_[r * words_per_row_];
    const std::uint64_t* b = &bits_[other * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      if ((a[w] & b[w]) != 0) return true;
    }
    return false;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace prio::util
