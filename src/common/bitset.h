// Fixed-capacity dynamic bitset used for rumor sets.
//
// Rumors are identified by the originating process id, so a rumor set over n
// processes is exactly n bits (the EARS informed-list, gossip/informed_list.h,
// packs n rows of that width into one matrix). Union (operator|=) is the hot
// operation: a process receiving a gossip message merges the sender's
// knowledge into its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace asyncgossip {

/// Set bits in one word. Portable SWAR: the default x86-64 target has no
/// popcnt instruction, and __builtin_popcountll compiles to a libgcc call.
inline std::size_t popcount64(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
}

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(std::size_t size);

  std::size_t size() const { return size_; }

  // Inline: these run once per bit on the algorithms' hot paths. The index
  // check stays on in release builds like every AG_ASSERT.
  void set(std::size_t i) {
    check_index(i);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void reset(std::size_t i) {
    check_index(i);
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  bool test(std::size_t i) const {
    check_index(i);
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  void set_all();
  void clear_all();

  /// Number of set bits.
  std::size_t count() const;

  bool any() const;
  bool none() const { return !any(); }
  bool all() const { return count() == size_; }

  /// this |= other. Returns true iff any bit newly became set — the engine
  /// and algorithms use this to detect "learned something new".
  bool merge(const DynamicBitset& other);

  DynamicBitset& operator|=(const DynamicBitset& other);

  /// True iff every set bit of *this is also set in `other`.
  bool subset_of(const DynamicBitset& other) const;

  /// Index of the first clear bit, or size() if all bits are set.
  std::size_t first_clear() const;

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> set_bits() const;

  /// Calls f(i) for every set bit i, ascending.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        f(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// The packed words: bit i is bit i % 64 of words()[i / 64]; bits at and
  /// past size() are clear.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Bytes of a natural wire encoding (the packed words).
  std::size_t byte_size() const { return words_.size() * sizeof(std::uint64_t); }

  /// FNV-1a over the words; used for execution trace hashing in tests.
  std::uint64_t hash() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  void check_index(std::size_t i) const {
    AG_ASSERT_MSG(i < size_, "bit index out of range");
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace asyncgossip
