// InformedList against a reference model.
//
// The reference is the straightforward layout the flat list replaces: one
// DynamicBitset per rumor, a size-0 bitset meaning "no pairs recorded",
// with note/merge written bit by bit. Seeded random note_all/merge/copy
// sequences over several list sizes (word-boundary and ragged widths) must
// leave both sides with the same rows, presence, full-row count, byte_size
// and change reports, and a copy must not see later edits of its source.
#include "gossip/informed_list.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "informed_list_testing.h"

namespace asyncgossip {
namespace {

struct RefList {
  std::size_t n = 0;
  std::vector<DynamicBitset> rows;

  explicit RefList(std::size_t size) : n(size), rows(size) {}

  bool note_all(const DynamicBitset& v, std::size_t q) {
    bool changed = false;
    v.for_each_set([&](std::size_t r) {
      if (rows[r].size() == 0) rows[r] = DynamicBitset(n);
      if (!rows[r].test(q)) {
        rows[r].set(q);
        changed = true;
      }
    });
    return changed;
  }

  bool merge(const RefList& other) {
    bool changed = false;
    for (std::size_t r = 0; r < n; ++r) {
      if (other.rows[r].size() == 0) continue;
      if (rows[r].size() == 0) rows[r] = DynamicBitset(n);
      changed |= rows[r].merge(other.rows[r]);
    }
    return changed;
  }

  std::size_t full_count() const {
    std::size_t c = 0;
    for (const DynamicBitset& row : rows)
      if (row.size() != 0 && row.all()) ++c;
    return c;
  }

  std::size_t byte_size() const {
    std::size_t total = (n + 7) / 8;
    for (const DynamicBitset& row : rows) total += row.byte_size();
    return total;
  }
};

void expect_matches(const InformedList& got, const RefList& want,
                    const std::string& where) {
  ASSERT_EQ(got.size(), want.n) << where;
  for (std::size_t r = 0; r < want.n; ++r) {
    const DynamicBitset& row = want.rows[r];
    const bool is_present = row.size() != 0;
    EXPECT_EQ(got.present(r), is_present) << where << " row " << r;
    EXPECT_TRUE(informed_row(got, r) == row) << where << " row " << r;
    EXPECT_EQ(got.row_words(r) != nullptr, is_present) << where;
    for (std::size_t q = 0; q < want.n; ++q)
      EXPECT_EQ(got.test(r, q), is_present && row.test(q))
          << where << " pair " << r << "," << q;
  }
  EXPECT_EQ(got.full_count(), want.full_count()) << where;
  EXPECT_EQ(got.byte_size(), want.byte_size()) << where;
}

/// A random row set: sparse, dense, empty or everything, so that rows go
/// from absent through partial to full within one run.
DynamicBitset random_rows(std::size_t n, Xoshiro256SS* rng) {
  DynamicBitset v(n);
  switch (rng->uniform(4)) {
    case 0:
      break;
    case 1:
      v.set_all();
      break;
    case 2:
      v.set(static_cast<std::size_t>(rng->uniform(n)));
      break;
    default:
      for (std::size_t r = 0; r < n; ++r)
        if (rng->uniform(3) != 0) v.set(r);
  }
  return v;
}

TEST(InformedList, StartsWithEveryRowAbsent) {
  const InformedList list(70);
  EXPECT_EQ(list.size(), 70u);
  EXPECT_EQ(list.full_count(), 0u);
  EXPECT_EQ(list.byte_size(), 9u);  // presence bits only
  for (std::size_t r = 0; r < 70; ++r) {
    EXPECT_FALSE(list.present(r));
    EXPECT_EQ(informed_row(list, r).size(), 0u);
    EXPECT_EQ(list.row_words(r), nullptr);
  }
  EXPECT_TRUE(same_informed(list, InformedList(70)));
  EXPECT_FALSE(same_informed(list, InformedList(71)));
}

TEST(InformedList, NoteAllFillsRowsToFull) {
  InformedList list(3);
  DynamicBitset v(3);
  v.set(0);
  v.set(2);
  EXPECT_TRUE(list.note_all(v, 1));
  EXPECT_FALSE(list.note_all(v, 1));  // same pairs again: nothing new
  EXPECT_TRUE(list.present(0));
  EXPECT_FALSE(list.present(1));
  EXPECT_EQ(list.byte_size(), 1u + 2u * 8u);  // two present rows
  EXPECT_TRUE(list.test(0, 1));
  EXPECT_FALSE(list.test(0, 0));
  EXPECT_TRUE(list.note_all(v, 0));
  EXPECT_EQ(list.full_count(), 0u);
  EXPECT_TRUE(list.note_all(v, 2));
  EXPECT_EQ(list.full_count(), 2u);
  EXPECT_FALSE(list.note_all(v, 2));
}

TEST(InformedList, MergeOfAFullRowOnlyReportsNewBits) {
  InformedList a(65), b(65);
  DynamicBitset row0(65);
  row0.set(0);
  for (std::size_t q = 0; q < 65; ++q) b.note_all(row0, q);
  ASSERT_EQ(b.full_count(), 1u);
  EXPECT_TRUE(a.merge(b));   // absent row adopts the full one
  EXPECT_EQ(a.full_count(), 1u);
  EXPECT_FALSE(a.merge(b));  // full here: skipped, nothing new
  EXPECT_TRUE(same_informed(a, b));
}

TEST(InformedList, MisuseThrows) {
  InformedList list(8);
  EXPECT_THROW(list.note_all(DynamicBitset(9), 0), ModelViolation);
  EXPECT_THROW(list.note_all(DynamicBitset(8), 8), ModelViolation);
  EXPECT_THROW(list.merge(InformedList(9)), ModelViolation);
  EXPECT_THROW(list.set_row(0, DynamicBitset(7)), ModelViolation);
  list.set_row(0, DynamicBitset(8));
  EXPECT_TRUE(list.present(0));  // present with no bits
  EXPECT_THROW(list.set_row(0, DynamicBitset(8)), ModelViolation);
  EXPECT_THROW(list.test(0, 8), ModelViolation);
}

TEST(InformedList, RandomSequencesMatchTheReferenceModel) {
  for (const std::size_t n : {1u, 5u, 63u, 64u, 65u, 130u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Xoshiro256SS rng(seed * 1000 + n);
      constexpr std::size_t kLists = 4;
      std::vector<InformedList> lists(kLists, InformedList(n));
      std::vector<RefList> refs(kLists, RefList(n));
      // A frozen copy (the per-send snapshot) and what it must still hold.
      InformedList frozen(n);
      RefList frozen_ref(n);
      for (int op = 0; op < 200; ++op) {
        const std::string where = "n=" + std::to_string(n) + " seed=" +
                                  std::to_string(seed) + " op=" +
                                  std::to_string(op);
        const std::size_t i = static_cast<std::size_t>(rng.uniform(kLists));
        switch (rng.uniform(4)) {
          case 0:
          case 1: {
            const DynamicBitset v = random_rows(n, &rng);
            const std::size_t q = static_cast<std::size_t>(rng.uniform(n));
            const bool want = refs[i].note_all(v, q);
            EXPECT_EQ(lists[i].note_all(v, q), want) << where;
            break;
          }
          case 2: {
            const std::size_t j = static_cast<std::size_t>(rng.uniform(kLists));
            const bool want = refs[i].merge(refs[j]);
            EXPECT_EQ(lists[i].merge(lists[j]), want) << where;
            break;
          }
          default:
            frozen = lists[i];
            frozen_ref = refs[i];
            break;
        }
        expect_matches(lists[i], refs[i], where);
        expect_matches(frozen, frozen_ref, where + " (copy)");
        EXPECT_EQ(same_informed(lists[i], frozen),
                  refs[i].rows == frozen_ref.rows)
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace asyncgossip
