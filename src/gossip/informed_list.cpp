#include "gossip/informed_list.h"

#include <algorithm>

#include "common/assert.h"

namespace asyncgossip {

InformedList::InformedList(std::size_t n)
    : n_(n), words_per_row_((n + 63) / 64), present_(n), full_(n) {}

void InformedList::ensure_rows() {
  if (!rows_.empty()) return;
  rows_.assign(n_ * words_per_row_, 0);
  counts_.assign(n_, 0);
}

void InformedList::make_present(std::size_t r) {
  present_.set(r);
  ++present_count_;
}

void InformedList::count_bits(std::size_t r, std::size_t added) {
  counts_[r] += static_cast<std::uint32_t>(added);
  if (counts_[r] == n_) {
    full_.set(r);
    ++full_count_;
  }
}

bool InformedList::test(std::size_t r, std::size_t q) const {
  AG_ASSERT_MSG(q < n_, "informed-list target out of range");
  if (!present(r)) return false;
  return (rows_[r * words_per_row_ + q / 64] >> (q % 64)) & 1;
}

const std::uint64_t* InformedList::row_words(std::size_t r) const {
  return present(r) ? rows_.data() + r * words_per_row_ : nullptr;
}

bool InformedList::note_all(const DynamicBitset& rows, std::size_t q) {
  AG_ASSERT_MSG(rows.size() == n_, "informed-list row set size mismatch");
  AG_ASSERT_MSG(q < n_, "informed-list target out of range");
  ensure_rows();
  const std::uint64_t mask = std::uint64_t{1} << (q % 64);
  std::uint64_t* column = rows_.data() + q / 64;
  const std::vector<std::uint64_t>& wanted = rows.words();
  const std::vector<std::uint64_t>& full = full_.words();
  bool changed = false;
  for (std::size_t w = 0; w < wanted.size(); ++w) {
    // A full row already has bit q: skip it without touching its words.
    std::uint64_t todo = wanted[w] & ~full[w];
    while (todo != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(todo));
      todo &= todo - 1;
      std::uint64_t& word = column[r * words_per_row_];
      if ((word & mask) != 0) continue;
      word |= mask;
      changed = true;
      if (!present(r)) make_present(r);
      count_bits(r, 1);
    }
  }
  return changed;
}

bool InformedList::merge(const InformedList& other) {
  AG_ASSERT_MSG(other.n_ == n_, "informed-list size mismatch in merge");
  if (other.present_count_ == 0) return false;
  ensure_rows();
  const std::size_t width = words_per_row_;
  const std::vector<std::uint64_t>& theirs = other.present_.words();
  const std::vector<std::uint64_t>& full = full_.words();
  bool changed = false;
  for (std::size_t w = 0; w < theirs.size(); ++w) {
    // Rows full here cannot learn anything: skip them outright.
    std::uint64_t todo = theirs[w] & ~full[w];
    while (todo != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(todo));
      todo &= todo - 1;
      std::uint64_t* dst = mutable_row(r);
      const std::uint64_t* src = other.rows_.data() + r * width;
      if (!present(r)) {
        // Absent rows are all clear, so the union is a copy.
        make_present(r);
        std::copy(src, src + width, dst);
        if (other.counts_[r] != 0) {
          changed = true;
          count_bits(r, other.counts_[r]);
        }
        continue;
      }
      std::size_t added = 0;
      for (std::size_t i = 0; i < width; ++i) {
        const std::uint64_t add = src[i] & ~dst[i];
        dst[i] |= add;
        added += popcount64(add);
      }
      if (added == 0) continue;
      changed = true;
      count_bits(r, added);
    }
  }
  return changed;
}

void InformedList::set_row(std::size_t r, const DynamicBitset& bits) {
  AG_ASSERT_MSG(bits.size() == n_, "informed-list row width mismatch");
  AG_ASSERT_MSG(!present(r), "informed-list row is already present");
  ensure_rows();
  make_present(r);
  std::copy(bits.words().begin(), bits.words().end(), mutable_row(r));
  count_bits(r, bits.count());
}

}  // namespace asyncgossip
