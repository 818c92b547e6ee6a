#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

/// Checks CanonicalOrder() and Canonical() against NaiveCanonical: columns
/// by ascending pattern-node id, every stored row exactly once, rows as the
/// naive sort has them, and equal rows in their stored order.
void ExpectCanonical(const TupleSet& set, const std::string& label) {
  const std::vector<std::vector<NodeId>> expected = NaiveCanonical(set);
  EXPECT_EQ(set.Canonical(), expected) << label;
  const TupleSet::Order order = set.CanonicalOrder();
  const size_t arity = set.arity();
  ASSERT_EQ(order.columns.size(), arity) << label;
  for (size_t c = 1; c < arity; ++c) {
    EXPECT_LT(set.slots()[order.columns[c - 1]], set.slots()[order.columns[c]])
        << label;
  }
  ASSERT_EQ(order.rows.size(), set.size()) << label;
  std::vector<uint32_t> seen = order.rows;
  std::sort(seen.begin(), seen.end());
  for (size_t r = 0; r < seen.size(); ++r) ASSERT_EQ(seen[r], r) << label;
  for (size_t r = 0; r < set.size(); ++r) {
    for (size_t c = 0; c < arity; ++c) {
      ASSERT_EQ(set.At(order.rows[r], order.columns[c]), expected[r][c])
          << label << " row " << r << " column " << c;
    }
    if (r > 0 && expected[r] == expected[r - 1]) {
      ASSERT_LT(order.rows[r - 1], order.rows[r]) << label << " row " << r;
    }
  }
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
    ExpectCanonical(set, "trial " + std::to_string(trial));
  }
}

TEST(TupleSetTest, CanonicalOrderAcrossIdWidthsAndRowCounts) {
  // The order sorts a key of the first two canonical ids, each as wide as
  // its largest id, above the row index; ties on it are sorted by the
  // remaining ids. Cover keys of both widths, row indices crossing digit
  // boundaries, leading ids that never vary, and presorted and reversed
  // input.
  Rng rng(7);
  const uint64_t domains[] = {1, 2, 2048, 2049, 1 << 20, uint64_t{1} << 32};
  const size_t row_counts[] = {1, 2, 2047, 2048, 2049, 70'000};
  int shape = 0;
  for (const size_t rows : row_counts) {
    for (const uint64_t lead_domain : domains) {
      const size_t arity = 1 + static_cast<size_t>(shape) % 4;
      std::vector<PatternNodeId> slots(arity);
      for (size_t c = 0; c < arity; ++c) {
        slots[c] = static_cast<PatternNodeId>(arity - c);  // reversed
      }
      std::vector<std::vector<NodeId>> data(rows, std::vector<NodeId>(arity));
      for (std::vector<NodeId>& row : data) {
        for (size_t c = 0; c < arity; ++c) {
          // The last stored columns lead the canonical order.
          const uint64_t domain = c + 2 >= arity ? lead_domain : 5;
          row[c] = static_cast<NodeId>(rng.NextBelow(domain));
        }
      }
      if (shape % 3 != 0) {
        std::sort(data.begin(), data.end(), [](const auto& x, const auto& y) {
          return std::lexicographical_compare(x.rbegin(), x.rend(),
                                              y.rbegin(), y.rend());
        });
      }
      if (shape % 3 == 2) std::reverse(data.begin(), data.end());
      TupleSet set(slots);
      set.Reserve(rows);
      for (const std::vector<NodeId>& row : data) set.AppendRow(row.data());
      ExpectCanonical(set, "rows " + std::to_string(rows) + " domain " +
                               std::to_string(lead_domain) + " arity " +
                               std::to_string(arity));
      ++shape;
    }
  }
}

}  // namespace
}  // namespace sjos
