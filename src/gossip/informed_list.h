// The EARS/SEARS informed-list I(p) (paper Sections 3-4, Figure 2) in one
// flat allocation.
//
// Row r is the set of processes that, to p's knowledge, have been *sent*
// rumor r. A row is either absent ("no pairs recorded yet") or present
// with n bits; the absent/present distinction is part of the
// bit-complexity measure (byte_size) and of the wire encoding, so it is
// kept explicitly in `present` rather than inferred from the bits.
//
// Layout: the present rows live in one contiguous n x ceil(n/64)-word
// matrix, allocated lazily when the first row becomes present (a process
// that never sends, or the no-informed-list ablation, never pays for it).
// A `full` bitset and per-row bit counts make "is row r all of [n]" O(1),
// so full_count() — the progress condition's L(p) emptiness test — is O(1),
// note_all() skips rows that are already full, and merge() skips rows that
// are full on the receiving side. Copying an InformedList (the per-send
// snapshot) is a handful of allocations, not one per row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitset.h"

namespace asyncgossip {

class InformedList {
 public:
  InformedList() = default;

  /// n rows of n bits, all absent. Allocates only the two row bitsets.
  explicit InformedList(std::size_t n);

  /// Number of rows (= bits per row = n).
  std::size_t size() const { return n_; }

  bool present(std::size_t r) const { return present_.test(r); }

  /// Number of present rows whose n bits are all set.
  std::size_t full_count() const { return full_count_; }

  /// Bit q of row r (false when the row is absent).
  bool test(std::size_t r, std::size_t q) const;

  /// The ceil(n/64) packed words of a present row (bit q is bit q % 64 of
  /// word q / 64), nullptr when the row is absent.
  const std::uint64_t* row_words(std::size_t r) const;

  /// Records (r, q) for every r in `rows`: sets bit q of each such row,
  /// making absent rows present. Returns true iff some bit newly became set.
  bool note_all(const DynamicBitset& rows, std::size_t q);

  /// this |= other, row by row; other's present rows become present here.
  /// Returns true iff some bit newly became set.
  bool merge(const InformedList& other);

  /// Makes row r present with exactly the bits of `bits` (size n). For
  /// decoders and tests; the algorithms only note and merge.
  void set_row(std::size_t r, const DynamicBitset& bits);

  /// The bit-complexity measure: one presence bit per row, plus the packed
  /// words (8 * ceil(n/64) bytes) of every present row. O(1).
  std::size_t byte_size() const {
    return (n_ + 7) / 8 +
           present_count_ * words_per_row_ * sizeof(std::uint64_t);
  }

 private:
  std::uint64_t* mutable_row(std::size_t r) {
    return rows_.data() + r * words_per_row_;
  }
  /// Allocates the row matrix (all clear) if it is not there yet.
  void ensure_rows();
  void make_present(std::size_t r);
  void count_bits(std::size_t r, std::size_t added);

  std::size_t n_ = 0;
  std::size_t words_per_row_ = 0;
  DynamicBitset present_;
  DynamicBitset full_;
  std::size_t present_count_ = 0;
  std::size_t full_count_ = 0;
  std::vector<std::uint64_t> rows_;     // n * words_per_row_, or empty
  std::vector<std::uint32_t> counts_;   // set bits per row, or empty
};

}  // namespace asyncgossip
