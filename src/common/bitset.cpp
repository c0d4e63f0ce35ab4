#include "common/bitset.h"

#include "common/assert.h"

namespace asyncgossip {

DynamicBitset::DynamicBitset(std::size_t size)
    : size_(size), words_((size + 63) / 64, 0) {}

void DynamicBitset::set_all() {
  if (size_ == 0) return;
  for (auto& w : words_) w = ~std::uint64_t{0};
  const std::size_t tail = size_ % 64;
  if (tail != 0) words_.back() = (std::uint64_t{1} << tail) - 1;
}

void DynamicBitset::clear_all() {
  for (auto& w : words_) w = 0;
}

std::size_t DynamicBitset::count() const {
  std::size_t c = 0;
  for (std::uint64_t w : words_) c += popcount64(w);
  return c;
}

bool DynamicBitset::any() const {
  for (std::uint64_t w : words_)
    if (w != 0) return true;
  return false;
}

bool DynamicBitset::merge(const DynamicBitset& other) {
  AG_ASSERT_MSG(size_ == other.size_, "bitset size mismatch in merge");
  bool changed = false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t merged = words_[i] | other.words_[i];
    changed |= (merged != words_[i]);
    words_[i] = merged;
  }
  return changed;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  merge(other);
  return *this;
}

bool DynamicBitset::subset_of(const DynamicBitset& other) const {
  AG_ASSERT_MSG(size_ == other.size_, "bitset size mismatch in subset_of");
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  return true;
}

std::size_t DynamicBitset::first_clear() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t inv = ~words_[w];
    if (inv != 0) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(__builtin_ctzll(inv));
      return i < size_ ? i : size_;
    }
  }
  return size_;
}

std::vector<std::size_t> DynamicBitset::set_bits() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each_set([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::uint64_t DynamicBitset::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  h ^= size_;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace asyncgossip
