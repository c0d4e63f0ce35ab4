// Test-side views of an InformedList, built only on its public queries
// (present, test, row_words), so the class carries no API that only tests
// use.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/bitset.h"
#include "gossip/informed_list.h"

namespace asyncgossip {

/// Row r as a bitset: n bits when present, a size-0 bitset when absent.
inline DynamicBitset informed_row(const InformedList& list, std::size_t r) {
  if (!list.present(r)) return DynamicBitset();
  DynamicBitset bits(list.size());
  for (std::size_t q = 0; q < list.size(); ++q)
    if (list.test(r, q)) bits.set(q);
  return bits;
}

/// Same size, same present rows, and the same packed words in each.
inline bool same_informed(const InformedList& a, const InformedList& b) {
  if (a.size() != b.size()) return false;
  const std::size_t words = (a.size() + 63) / 64;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a.present(r) != b.present(r)) return false;
    if (a.present(r) &&
        !std::equal(a.row_words(r), a.row_words(r) + words, b.row_words(r)))
      return false;
  }
  return true;
}

}  // namespace asyncgossip
