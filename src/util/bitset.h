// Fixed-capacity dynamic bitset used for reachability closures.
//
// std::vector<bool> lacks word-level operations; this class stores 64-bit
// words and supports the bulk AND/ANDNOT and popcount operations the
// graph closure and the concurrency analysis (set C(v), Section 3.1 of the
// paper) are built on.
//
// All single-bit and word-sweep operations are defined inline: profiling
// the experiment hot path shows tens of millions of test/set calls per
// bench run, and the out-of-line call overhead dominated the single-word
// bit twiddle they perform. Range checks are preserved (they are
// well-predicted branches).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace rtpool::util {

/// Read-only view over bitset words stored elsewhere (little-endian bit
/// order, bits past `size()` zero — the DynamicBitset invariants). Lets
/// flat row-major containers (graph::Reachability) hand out rows without
/// materializing one heap-backed bitset per row.
class BitsetView {
 public:
  BitsetView(const std::uint64_t* words, std::size_t size)
      : words_(words), size_(size) {}

  std::size_t size() const { return size_; }
  std::size_t word_count() const { return (size_ + 63) / 64; }

  bool test(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("BitsetView::test");
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  std::span<const std::uint64_t> words() const { return {words_, word_count()}; }

  std::size_t count() const {
    std::size_t c = 0;
    for (std::size_t w = 0; w < word_count(); ++w)
      c += static_cast<std::size_t>(std::popcount(words_[w]));
    return c;
  }

  /// Visit all set bits in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < word_count(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

 private:
  const std::uint64_t* words_;
  std::size_t size_;
};

/// Dynamic bitset with word-parallel set algebra.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  /// Copy the viewed bits (implicit: lets `DynamicBitset b = view;` work at
  /// the call sites that materialize one closure row for mutation).
  DynamicBitset(BitsetView view)
      : size_(view.size()),
        words_(view.words().begin(), view.words().end()) {}

  DynamicBitset& operator=(BitsetView view) {
    size_ = view.size();
    const std::span<const std::uint64_t> w = view.words();
    words_.assign(w.begin(), w.end());
    return *this;
  }

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("DynamicBitset::test");
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void set(std::size_t i) {
    if (i >= size_) throw std::out_of_range("DynamicBitset::set");
    words_[i / 64] |= (std::uint64_t{1} << (i % 64));
  }

  void reset(std::size_t i) {
    if (i >= size_) throw std::out_of_range("DynamicBitset::reset");
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }

  /// Reset all bits to 0.
  void clear() {
    for (auto& w : words_) w = 0;
  }

  /// Resize to `size` bits, all zero. Reuses the word storage when it
  /// suffices (no allocation on shrink or equal size) — the scratch-bitset
  /// idiom of the analysis kernels.
  void resize_clear(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  /// Set all bits (only the first `size()` bits).
  void set_all() {
    for (auto& w : words_) w = ~std::uint64_t{0};
    const std::size_t tail = size_ % 64;
    if (tail != 0 && !words_.empty())
      words_.back() &= (std::uint64_t{1} << tail) - 1;
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  /// True if no bit is set.
  bool none() const {
    for (auto w : words_)
      if (w != 0) return false;
    return true;
  }

  /// this &= other (sizes must match).
  void and_assign(const DynamicBitset& other) {
    check_compatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }

  /// this &= ~other (sizes must match).
  void and_not_assign(const DynamicBitset& other) {
    check_compatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  }

  // View overloads of the set algebra (sizes must match).
  void and_assign(BitsetView other) {
    check_compatible(other);
    const std::uint64_t* w = other.words().data();
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= w[i];
  }
  void and_not_assign(BitsetView other) {
    check_compatible(other);
    const std::uint64_t* w = other.words().data();
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~w[i];
  }

  /// Raw 64-bit words, little-endian bit order; bits past `size()` are 0.
  /// For callers that fuse several set operations into one word sweep
  /// (the analysis blocking kernel) instead of materializing temporaries.
  std::span<const std::uint64_t> words() const { return words_; }

  /// Visit all set bits in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  bool operator==(const DynamicBitset& other) const = default;

 private:
  void check_compatible(const DynamicBitset& other) const {
    if (size_ != other.size_)
      throw std::invalid_argument("DynamicBitset: size mismatch");
  }
  void check_compatible(BitsetView other) const {
    if (size_ != other.size())
      throw std::invalid_argument("DynamicBitset: size mismatch");
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rtpool::util
