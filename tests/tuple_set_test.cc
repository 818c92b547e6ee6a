#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "exec/tuple_set.h"

namespace sjos {
namespace {

TEST(TupleSetTest, EmptySet) {
  TupleSet set({0, 1});
  EXPECT_EQ(set.arity(), 2u);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.empty());
}

TEST(TupleSetTest, AppendAndAccess) {
  TupleSet set({3, 7});
  NodeId row1[] = {10, 20};
  NodeId row2[] = {11, 21};
  set.AppendRow(row1);
  set.AppendRow(row2);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.At(0, 0), 10u);
  EXPECT_EQ(set.At(1, 1), 21u);
  EXPECT_EQ(set.Row(1)[0], 11u);
}

TEST(TupleSetTest, SlotLookup) {
  TupleSet set({3, 7, 2});
  EXPECT_EQ(set.SlotOf(7), 1);
  EXPECT_EQ(set.SlotOf(2), 2);
  EXPECT_EQ(set.SlotOf(9), -1);
}

TEST(TupleSetTest, AppendConcat) {
  TupleSet set({0, 1, 2});
  NodeId left[] = {1, 2};
  NodeId right[] = {3};
  set.AppendConcat(left, 2, right, 1);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.At(0, 2), 3u);
}

TEST(TupleSetTest, SortBySlotIsStable) {
  TupleSet set({0, 1});
  NodeId rows[][2] = {{5, 1}, {3, 2}, {5, 0}, {1, 9}};
  for (auto& r : rows) set.AppendRow(r);
  set.SortBySlot(0);
  EXPECT_EQ(set.At(0, 0), 1u);
  EXPECT_EQ(set.At(1, 0), 3u);
  // Stability: the two rows with key 5 keep input order (1 before 0).
  EXPECT_EQ(set.At(2, 1), 1u);
  EXPECT_EQ(set.At(3, 1), 0u);
  EXPECT_EQ(set.ordered_by_slot(), 0);
  EXPECT_EQ(set.OrderedByNode(), 0);
  EXPECT_TRUE(set.IsSortedBySlot(0));
}

TEST(TupleSetTest, IsSortedDetectsDisorder) {
  TupleSet set({0});
  NodeId a = 2, b = 1;
  set.AppendRow(&a);
  set.AppendRow(&b);
  EXPECT_FALSE(set.IsSortedBySlot(0));
  set.SortBySlot(0);
  EXPECT_TRUE(set.IsSortedBySlot(0));
}

TEST(TupleSetTest, CanonicalReordersColumnsAndRows) {
  TupleSet set({5, 2});  // columns out of pattern order
  NodeId r1[] = {10, 99};
  NodeId r2[] = {11, 50};
  set.AppendRow(r1);
  set.AppendRow(r2);
  std::vector<std::vector<NodeId>> canon = set.Canonical();
  ASSERT_EQ(canon.size(), 2u);
  // Column for pattern node 2 comes first.
  EXPECT_EQ(canon[0], (std::vector<NodeId>{50, 11}));
  EXPECT_EQ(canon[1], (std::vector<NodeId>{99, 10}));
}

/// The canonical order the obvious way: one vector per row, columns by
/// ascending pattern-node id, then std::sort.
std::vector<std::vector<NodeId>> NaiveCanonical(const TupleSet& set) {
  std::vector<size_t> col_order(set.arity());
  for (size_t c = 0; c < col_order.size(); ++c) col_order[c] = c;
  std::sort(col_order.begin(), col_order.end(), [&](size_t x, size_t y) {
    return set.slots()[x] < set.slots()[y];
  });
  std::vector<std::vector<NodeId>> rows;
  for (size_t r = 0; r < set.size(); ++r) {
    std::vector<NodeId> row;
    for (size_t c : col_order) row.push_back(set.At(r, c));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(TupleSetTest, CanonicalMatchesNaiveSort) {
  // The wire encoder writes rows in this order, so any divergence from
  // the plain lexicographic sort changes response bytes.
  Rng rng(20260417);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t arity = 1 + rng.NextBelow(5);
    std::vector<PatternNodeId> slots;
    for (size_t c = 0; c < arity; ++c) {
      slots.push_back(static_cast<PatternNodeId>(c * 3 + rng.NextBelow(3)));
    }
    rng.Shuffle(&slots);
    TupleSet set(slots);
    const size_t rows = trial % 10 == 0 ? 0 : rng.NextBelow(400);
    // Small value domains force many duplicate rows and long shared
    // prefixes; some trials use the full 32-bit range.
    const uint64_t domain = trial % 3 == 0 ? (uint64_t{1} << 32)
                                           : 1 + rng.NextBelow(6);
    std::vector<NodeId> row(arity);
    for (size_t r = 0; r < rows; ++r) {
      for (NodeId& id : row) id = static_cast<NodeId>(rng.NextBelow(domain));
      set.AppendRow(row.data());
    }
    const std::vector<std::vector<NodeId>> expected = NaiveCanonical(set);
    EXPECT_EQ(set.Canonical(), expected) << "trial " << trial;
    const std::vector<NodeId> flat = set.CanonicalRows();
    ASSERT_EQ(flat.size(), rows * arity) << "trial " << trial;
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_TRUE(std::equal(expected[r].begin(), expected[r].end(),
                             flat.begin() + r * arity))
          << "trial " << trial << " row " << r;
    }
  }
}

TEST(TupleSetTest, OrderedByNodeUnknownByDefault) {
  TupleSet set({4});
  EXPECT_EQ(set.ordered_by_slot(), -1);
  EXPECT_EQ(set.OrderedByNode(), kNoPatternNode);
}

}  // namespace
}  // namespace sjos
