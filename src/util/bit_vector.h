#ifndef RPQLEARN_UTIL_BIT_VECTOR_H_
#define RPQLEARN_UTIL_BIT_VECTOR_H_

#include <bit>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/logging.h"

namespace rpqlearn {

/// Fixed-size packed bit set. Used for node sets (query results, samples)
/// and automata state sets, where `std::vector<bool>` is too slow for the
/// bulk operations the evaluation engine needs.
class BitVector {
 public:
  /// Bits per storage word; index `i` lives in word `i / kBitsPerWord`.
  static constexpr size_t kBitsPerWord = 64;

  BitVector() : size_(0) {}
  /// Creates `size` bits, all zero.
  explicit BitVector(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }
  size_t num_words() const { return words_.size(); }

  /// Raw storage word `wi` (bit `i` of the vector is bit `i % 64` of word
  /// `i / 64`). Bits beyond size() are always zero.
  uint64_t Word(size_t wi) const {
    RPQ_DCHECK(wi < words_.size());
    return words_[wi];
  }

  bool Test(size_t i) const {
    RPQ_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) {
    RPQ_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Reset(size_t i) {
    RPQ_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }

  /// Sets all bits to zero.
  void Clear() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t w : words_) total += static_cast<size_t>(std::popcount(w));
    return total;
  }

  /// True iff any bit is set.
  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  /// In-place union; sizes must match.
  void OrWith(const BitVector& other) {
    RPQ_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }
  /// In-place intersection; sizes must match.
  void AndWith(const BitVector& other) {
    RPQ_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }
  /// In-place difference (`this \ other`); sizes must match.
  void SubtractWith(const BitVector& other) {
    RPQ_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  }

  /// True iff every set bit of `this` is also set in `other`.
  bool IsSubsetOf(const BitVector& other) const {
    RPQ_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~other.words_[i]) != 0) return false;
    }
    return true;
  }

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToIndices() const {
    std::vector<uint32_t> out;
    out.reserve(Count());
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        int bit = std::countr_zero(w);
        out.push_back(static_cast<uint32_t>(wi * 64 + bit));
        w &= w - 1;
      }
    }
    return out;
  }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_UTIL_BIT_VECTOR_H_
