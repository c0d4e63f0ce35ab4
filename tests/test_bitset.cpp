#include "common/bitset.h"

#include <gtest/gtest.h>

#include "common/assert.h"

namespace asyncgossip {
namespace {

TEST(Bitset, StartsEmpty) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  EXPECT_FALSE(b.all());
}

TEST(Bitset, SetTestReset) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, SetAllRespectsTail) {
  DynamicBitset b(67);
  b.set_all();
  EXPECT_EQ(b.count(), 67u);
  EXPECT_TRUE(b.all());
  b.clear_all();
  EXPECT_TRUE(b.none());
}

TEST(Bitset, SetAllExactWordBoundary) {
  DynamicBitset b(128);
  b.set_all();
  EXPECT_EQ(b.count(), 128u);
  EXPECT_TRUE(b.all());
}

TEST(Bitset, MergeDetectsChange) {
  DynamicBitset a(80), b(80);
  b.set(10);
  b.set(70);
  EXPECT_TRUE(a.merge(b));
  EXPECT_FALSE(a.merge(b));  // idempotent
  EXPECT_TRUE(a.test(10));
  EXPECT_TRUE(a.test(70));
}

TEST(Bitset, MergeSizeMismatchThrows) {
  DynamicBitset a(10), b(11);
  EXPECT_THROW(a.merge(b), ModelViolation);
}

TEST(Bitset, SubsetOf) {
  DynamicBitset a(64), b(64);
  a.set(1);
  a.set(5);
  b.set(1);
  b.set(5);
  b.set(9);
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
  DynamicBitset empty(64);
  EXPECT_TRUE(empty.subset_of(a));
}

TEST(Bitset, FirstClear) {
  DynamicBitset b(130);
  EXPECT_EQ(b.first_clear(), 0u);
  b.set(0);
  b.set(1);
  EXPECT_EQ(b.first_clear(), 2u);
  b.set_all();
  EXPECT_EQ(b.first_clear(), 130u);
  b.reset(129);
  EXPECT_EQ(b.first_clear(), 129u);
}

TEST(Bitset, SetBitsAndForEach) {
  DynamicBitset b(200);
  b.set(3);
  b.set(64);
  b.set(199);
  const auto bits = b.set_bits();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 3u);
  EXPECT_EQ(bits[1], 64u);
  EXPECT_EQ(bits[2], 199u);
  std::size_t visited = 0;
  b.for_each_set([&](std::size_t i) {
    EXPECT_TRUE(b.test(i));
    ++visited;
  });
  EXPECT_EQ(visited, 3u);
}

TEST(Bitset, EqualityAndHash) {
  DynamicBitset a(64), b(64), c(65);
  a.set(7);
  b.set(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(8);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_FALSE(a == c);  // size matters
}

TEST(Bitset, OutOfRangeThrows) {
  DynamicBitset b(10);
  EXPECT_THROW(b.set(10), ModelViolation);
  EXPECT_THROW(b.test(10), ModelViolation);
  EXPECT_THROW(b.reset(999), ModelViolation);
}

TEST(Bitset, EmptyBitset) {
  DynamicBitset b(0);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_TRUE(b.all());  // vacuously
  EXPECT_EQ(b.first_clear(), 0u);
}

}  // namespace
}  // namespace asyncgossip
