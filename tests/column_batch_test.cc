// Property tests for the columnar batch core: ColumnBatch -> TupleSet
// conversion over random schemas and sizes (including empty and arity-1
// batches), the stable sort against a row-wise std::stable_sort, the
// columnar appenders, and seeded fuzz of the two SSE2 kernels against
// their scalar references, including the sign-bias boundary values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/tuple_set.h"
#include "exec/vector_kernels.h"

namespace sjos {
namespace {

/// Random schema of `arity` distinct pattern node ids.
std::vector<PatternNodeId> RandomSlots(Rng* rng, size_t arity) {
  std::vector<PatternNodeId> slots;
  PatternNodeId next = 0;
  for (size_t i = 0; i < arity; ++i) {
    next = static_cast<PatternNodeId>(next + 1 + rng->NextBelow(3));
    slots.push_back(next);
  }
  rng->Shuffle(&slots);
  return slots;
}

ColumnBatch RandomBatch(Rng* rng, size_t arity, size_t rows) {
  ColumnBatch batch(RandomSlots(rng, arity));
  std::vector<NodeId> row(arity);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < arity; ++c) {
      row[c] = static_cast<NodeId>(rng->NextBelow(1 << 20));
    }
    batch.AppendRow(row.data());
  }
  if (arity > 0 && rng->NextBool(0.5)) {
    batch.set_ordered_by_slot(static_cast<int>(rng->NextBelow(arity)));
  }
  return batch;
}

void ExpectSameContent(const TupleSet& rows, const ColumnBatch& cols) {
  ASSERT_EQ(rows.slots(), cols.slots());
  ASSERT_EQ(rows.size(), cols.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows.arity(); ++c) {
      ASSERT_EQ(rows.At(r, c), cols.At(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(ColumnBatchToRows, RandomArityAndSizes) {
  Rng rng(0xC01BEEF);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t arity = 1 + rng.NextBelow(6);
    const size_t rows = rng.NextBelow(64);
    ColumnBatch cols = RandomBatch(&rng, arity, rows);
    ExpectSameContent(cols.ToRows(), cols);
  }
}

TEST(ColumnBatchToRows, EmptyBatchesKeepSchemaAndOrdering) {
  ColumnBatch cols({PatternNodeId{3}, PatternNodeId{1}});
  cols.set_ordered_by_slot(1);
  EXPECT_EQ(cols.size(), 0u);
  EXPECT_EQ(cols.arity(), 2u);
  EXPECT_EQ(cols.ordered_by_slot(), 1);
  EXPECT_EQ(cols.OrderedByNode(), PatternNodeId{1});
  TupleSet back = cols.ToRows();
  EXPECT_EQ(back.slots(), cols.slots());
  EXPECT_TRUE(back.empty());
}

TEST(ColumnBatchToRows, ArityOne) {
  Rng rng(0xA117);
  ColumnBatch cols = RandomBatch(&rng, 1, 37);
  ExpectSameContent(cols.ToRows(), cols);
}

TEST(ColumnBatch, SortBySlotMatchesStableSortOfRows) {
  Rng rng(0x5027);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t arity = 1 + rng.NextBelow(4);
    ColumnBatch cols = RandomBatch(&rng, arity, rng.NextBelow(80));
    const size_t slot = rng.NextBelow(arity);
    // Narrow the key column to a few values so ties show stability.
    for (NodeId& id : cols.Raw(slot)) id %= 7;
    std::vector<std::vector<NodeId>> want(cols.size());
    for (size_t r = 0; r < cols.size(); ++r) {
      for (size_t c = 0; c < arity; ++c) want[r].push_back(cols.At(r, c));
    }
    std::stable_sort(want.begin(), want.end(),
                     [slot](const std::vector<NodeId>& x,
                            const std::vector<NodeId>& y) {
                       return x[slot] < y[slot];
                     });
    cols.SortBySlot(slot);
    EXPECT_EQ(cols.ordered_by_slot(), static_cast<int>(slot));
    EXPECT_TRUE(cols.IsSortedBySlot(slot));
    ASSERT_EQ(cols.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      for (size_t c = 0; c < arity; ++c) {
        ASSERT_EQ(cols.At(r, c), want[r][c]) << "row " << r << " col " << c;
      }
    }
  }
}

/// Row-at-a-time reference for AppendCrossRuns: appends each run's rows
/// (left row, then right row) to `want` one by one.
void AppendCrossRunsReference(const ColumnBatch& left, const ColumnBatch& right,
                              const std::vector<ColumnBatch::CrossRun>& runs,
                              ColumnBatch* want) {
  std::vector<NodeId> row(left.arity() + right.arity());
  for (const ColumnBatch::CrossRun& run : runs) {
    for (uint32_t i = 0; i < run.n; ++i) {
      for (size_t c = 0; c < left.arity(); ++c) {
        row[c] = left.At(run.left_row, c);
      }
      for (size_t c = 0; c < right.arity(); ++c) {
        row[left.arity() + c] = right.At(run.right_begin + i, c);
      }
      want->AppendRow(row.data());
    }
  }
}

void ExpectSameBatch(const ColumnBatch& got, const ColumnBatch& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    for (size_t c = 0; c < want.arity(); ++c) {
      ASSERT_EQ(got.At(r, c), want.At(r, c)) << "row " << r << " col " << c;
    }
  }
}

/// The output schema of a cross of `left` and `right`.
std::vector<PatternNodeId> CrossSlots(const ColumnBatch& left,
                                      const ColumnBatch& right) {
  std::vector<PatternNodeId> slots = left.slots();
  for (PatternNodeId s : right.slots()) slots.push_back(s + 100);
  return slots;
}

TEST(ColumnBatch, AppendCrossRunsWithNoRowsKeepsTheBatch) {
  Rng rng(0xC705);
  const ColumnBatch left = RandomBatch(&rng, 2, 3);
  const ColumnBatch right = RandomBatch(&rng, 1, 4);
  ColumnBatch out(CrossSlots(left, right));
  const std::vector<ColumnBatch::CrossRun> first = {{2, 1, 2}};
  out.AppendCrossRuns(left, right, first.data(), first.size());
  ColumnBatch want(out.slots());
  AppendCrossRunsReference(left, right, first, &want);
  // No runs, then only zero-length runs: nothing is appended.
  out.AppendCrossRuns(left, right, nullptr, 0);
  const std::vector<ColumnBatch::CrossRun> empty = {{0, 0, 0}, {1, 4, 0}};
  out.AppendCrossRuns(left, right, empty.data(), empty.size());
  ExpectSameBatch(out, want);
  for (size_t c = 0; c < out.arity(); ++c) {
    EXPECT_EQ(out.Raw(c).size(), out.size()) << "column " << c;
  }
}

TEST(ColumnBatch, AppendCrossRunsSingleRowRuns) {
  ColumnBatch left({PatternNodeId{1}, PatternNodeId{2}});
  std::vector<NodeId> lrow = {10, 20};
  left.AppendRow(lrow.data());
  lrow = {11, 21};
  left.AppendRow(lrow.data());
  ColumnBatch right({PatternNodeId{5}});
  for (NodeId id : {100u, 101u, 102u, 103u}) right.AppendRow(&id);

  ColumnBatch out({PatternNodeId{1}, PatternNodeId{2}, PatternNodeId{5}});
  // Left row 1 × right row 1, then left row 0 × right row 3.
  const std::vector<ColumnBatch::CrossRun> runs = {{1, 1, 1}, {0, 3, 1}};
  out.AppendCrossRuns(left, right, runs.data(), runs.size());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.At(0, 0), 11u);
  EXPECT_EQ(out.At(0, 1), 21u);
  EXPECT_EQ(out.At(0, 2), 101u);
  EXPECT_EQ(out.At(1, 0), 10u);
  EXPECT_EQ(out.At(1, 1), 20u);
  EXPECT_EQ(out.At(1, 2), 103u);
}

TEST(ColumnBatch, AppendCrossRunsLongRun) {
  Rng rng(0x1096);
  const ColumnBatch left = RandomBatch(&rng, 1, 5);
  const ColumnBatch right = RandomBatch(&rng, 2, 5000);
  ColumnBatch out(CrossSlots(left, right));
  const std::vector<ColumnBatch::CrossRun> runs = {{3, 7, 4321}, {4, 0, 1}};
  out.AppendCrossRuns(left, right, runs.data(), runs.size());
  ColumnBatch want(out.slots());
  AppendCrossRunsReference(left, right, runs, &want);
  ExpectSameBatch(out, want);
  EXPECT_EQ(out.size(), 4322u);
}

TEST(ColumnBatch, AppendCrossRunsMatchesRowwiseAcrossArities) {
  Rng rng(0xA217);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t left_arity = 1 + rng.NextBelow(3);
    const size_t right_arity = 1 + rng.NextBelow(3);
    const ColumnBatch left =
        RandomBatch(&rng, left_arity, 1 + rng.NextBelow(20));
    const ColumnBatch right =
        RandomBatch(&rng, right_arity, 1 + rng.NextBelow(40));
    ColumnBatch out(CrossSlots(left, right));
    ColumnBatch want(out.slots());
    // Several passes onto the same batch, each with a mix of run lengths
    // (zero-length runs included).
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<ColumnBatch::CrossRun> runs(rng.NextBelow(12));
      for (ColumnBatch::CrossRun& run : runs) {
        run.left_row = static_cast<uint32_t>(rng.NextBelow(left.size()));
        run.right_begin = static_cast<uint32_t>(rng.NextBelow(right.size()));
        run.n = static_cast<uint32_t>(
            rng.NextBelow(right.size() - run.right_begin + 1));
      }
      out.AppendCrossRuns(left, right, runs.data(), runs.size());
      AppendCrossRunsReference(left, right, runs, &want);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameBatch(out, want);
  }
}

TEST(ColumnBatch, AppendGatherSelectsRowsInSelOrder) {
  Rng rng(0x6A77);
  ColumnBatch cols = RandomBatch(&rng, 3, 40);
  std::vector<uint32_t> sel = {7, 3, 3, 39, 0};
  ColumnBatch out(cols.slots());
  out.AppendGather(cols, sel.data(), sel.size());
  ASSERT_EQ(out.size(), sel.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(out.At(i, c), cols.At(sel[i], c));
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel fuzz: the SSE2 kernels against their scalar references on seeded
// random columns — sizes straddling the 4/8-lane boundaries, plus
// adversarial all-match/none-match/tie patterns.

std::vector<NodeId> RandomColumn(Rng* rng, size_t n, uint32_t max) {
  std::vector<NodeId> col(n);
  for (size_t i = 0; i < n; ++i) {
    col[i] = static_cast<NodeId>(rng->NextBelow(max));
  }
  return col;
}

const size_t kFuzzSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                             31, 33, 64, 100, 257, 1000};

TEST(KernelFuzz, SelEqualsU16MatchesScalarReference) {
  Rng rng(0xFACE02);
  for (size_t n : kFuzzSizes) {
    for (int iter = 0; iter < 20; ++iter) {
      // Small value domain so equality hits are dense.
      std::vector<uint16_t> col(n);
      for (size_t i = 0; i < n; ++i) {
        col[i] = static_cast<uint16_t>(rng.NextBelow(6));
      }
      const uint16_t v = static_cast<uint16_t>(rng.NextBelow(6));
      std::vector<uint32_t> sel_s(n + 1), sel_v(n + 1);
      const size_t ks =
          kernels::SelEqualsU16Scalar(col.data(), n, v, sel_s.data());
      const size_t kv = kernels::SelEqualsU16(col.data(), n, v, sel_v.data());
      ASSERT_EQ(ks, kv) << "n=" << n;
      EXPECT_TRUE(std::equal(sel_s.begin(), sel_s.begin() + ks,
                             sel_v.begin()));
    }
  }
}

TEST(KernelFuzz, IsNonDecreasingMatchesScalarReference) {
  Rng rng(0xFACE04);
  for (size_t n : kFuzzSizes) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<NodeId> col = RandomColumn(&rng, n, 64);
      if (rng.NextBool(0.5)) std::sort(col.begin(), col.end());
      EXPECT_EQ(kernels::IsNonDecreasingScalar(col.data(), n),
                kernels::IsNonDecreasing(col.data(), n))
          << "n=" << n;
    }
    // Sorted except one late inversion: the tail the lane loop must catch.
    if (n >= 2) {
      std::vector<NodeId> col(n);
      for (size_t i = 0; i < n; ++i) col[i] = static_cast<NodeId>(i + 1);
      col[n - 1] = 0;
      EXPECT_FALSE(kernels::IsNonDecreasingScalar(col.data(), n));
      EXPECT_FALSE(kernels::IsNonDecreasing(col.data(), n));
    }
  }
}

TEST(KernelFuzz, IsNonDecreasingBoundaryValues) {
  // SSE2 compares signed 32-bit lanes, so the kernel flips each value's
  // sign bit first. Steps across 0x80000000 and onto 0xFFFFFFFF are where
  // a missing or wrong bias misorders; each step is placed at every
  // position, so it lands in every lane and in the scalar tail.
  const NodeId kEdges[] = {0u,          1u,          0x7FFFFFFEu,
                           0x7FFFFFFFu, 0x80000000u, 0x80000001u,
                           0xFFFFFFFEu, 0xFFFFFFFFu};
  for (size_t n : {size_t{2}, size_t{4}, size_t{5}, size_t{8}, size_t{9},
                   size_t{13}}) {
    for (NodeId lo : kEdges) {
      for (NodeId hi : kEdges) {
        if (lo >= hi) continue;
        for (size_t step = 1; step < n; ++step) {
          SCOPED_TRACE(::testing::Message() << "n=" << n << " lo=" << lo
                                            << " hi=" << hi
                                            << " step=" << step);
          std::vector<NodeId> up(n), down(n);
          for (size_t i = 0; i < n; ++i) {
            up[i] = i < step ? lo : hi;
            down[i] = i < step ? hi : lo;
          }
          EXPECT_TRUE(kernels::IsNonDecreasingScalar(up.data(), n));
          EXPECT_TRUE(kernels::IsNonDecreasing(up.data(), n));
          EXPECT_FALSE(kernels::IsNonDecreasingScalar(down.data(), n));
          EXPECT_FALSE(kernels::IsNonDecreasing(down.data(), n));
        }
      }
    }
  }
}

}  // namespace
}  // namespace sjos
