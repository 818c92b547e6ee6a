// Property tests for the columnar batch core: TupleSet ↔ ColumnBatch
// round-trips over random schemas/sizes (including empty and arity-1
// batches), columnar appenders against their row-major equivalents, and
// seeded fuzz of every selection-vector/sweep kernel's Vector variant
// against its Scalar oracle — the bitwise-identity contract the SJOS_SIMD
// dispatch relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

TupleSet RandomTupleSet(Rng* rng, size_t arity, size_t rows) {
  TupleSet set(RandomSlots(rng, arity));
  std::vector<NodeId> row(arity);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < arity; ++c) {
      row[c] = static_cast<NodeId>(rng->NextBelow(1 << 20));
    }
    set.AppendRow(row.data());
  }
  if (arity > 0 && rng->NextBool(0.5)) {
    set.set_ordered_by_slot(static_cast<int>(rng->NextBelow(arity)));
  }
  return set;
}

void ExpectSameContent(const TupleSet& rows, const ColumnBatch& cols) {
  ASSERT_EQ(rows.slots(), cols.slots());
  ASSERT_EQ(rows.size(), cols.size());
  EXPECT_EQ(rows.ordered_by_slot(), cols.ordered_by_slot());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows.arity(); ++c) {
      ASSERT_EQ(rows.At(r, c), cols.At(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(ColumnBatchRoundTrip, RandomArityAndSizes) {
  Rng rng(0xC01BEEF);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t arity = 1 + rng.NextBelow(6);
    const size_t rows = rng.NextBelow(64);
    TupleSet set = RandomTupleSet(&rng, arity, rows);
    ColumnBatch cols = ColumnBatch::FromRows(set);
    ExpectSameContent(set, cols);
    TupleSet back = cols.ToRows();
    ExpectSameContent(back, cols);
    EXPECT_EQ(set.Canonical(), back.Canonical());
    EXPECT_EQ(set.Canonical(), cols.ToRows().Canonical());
    EXPECT_EQ(set.ordered_by_slot(), back.ordered_by_slot());
  }
}

TEST(ColumnBatchRoundTrip, EmptyBatchesKeepSchemaAndOrdering) {
  TupleSet set({PatternNodeId{3}, PatternNodeId{1}});
  set.set_ordered_by_slot(1);
  ColumnBatch cols = ColumnBatch::FromRows(set);
  EXPECT_EQ(cols.size(), 0u);
  EXPECT_EQ(cols.arity(), 2u);
  EXPECT_EQ(cols.ordered_by_slot(), 1);
  EXPECT_EQ(cols.OrderedByNode(), PatternNodeId{1});
  TupleSet back = cols.ToRows();
  EXPECT_EQ(back.slots(), set.slots());
  EXPECT_EQ(back.ordered_by_slot(), 1);
  EXPECT_TRUE(back.empty());
}

TEST(ColumnBatchRoundTrip, ArityOne) {
  Rng rng(0xA117);
  TupleSet set = RandomTupleSet(&rng, 1, 37);
  set.set_ordered_by_slot(0);
  ColumnBatch cols = ColumnBatch::FromRows(set);
  ExpectSameContent(set, cols);
  EXPECT_EQ(cols.ToRows().Canonical(), set.Canonical());
}

TEST(ColumnBatchRoundTrip, SortBySlotMatchesTupleSet) {
  Rng rng(0x5027);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t arity = 1 + rng.NextBelow(4);
    TupleSet set = RandomTupleSet(&rng, arity, rng.NextBelow(80));
    ColumnBatch cols = ColumnBatch::FromRows(set);
    const size_t slot = rng.NextBelow(arity);
    set.SortBySlot(slot);
    cols.SortBySlot(slot);
    ExpectSameContent(set, cols);  // stable sorts must agree row for row
    EXPECT_TRUE(cols.IsSortedBySlot(slot));
  }
}

TEST(ColumnBatch, AppendCrossExpandsOneAncestorTimesRun) {
  TupleSet left({PatternNodeId{1}, PatternNodeId{2}});
  std::vector<NodeId> lrow = {10, 20};
  left.AppendRow(lrow.data());
  lrow = {11, 21};
  left.AppendRow(lrow.data());
  TupleSet right({PatternNodeId{5}});
  for (NodeId id : {100u, 101u, 102u, 103u}) right.AppendRow(&id);

  ColumnBatch lcols = ColumnBatch::FromRows(left);
  ColumnBatch rcols = ColumnBatch::FromRows(right);
  ColumnBatch out({PatternNodeId{1}, PatternNodeId{2}, PatternNodeId{5}});
  out.AppendCross(lcols, 1, rcols, 1, 2);  // left row 1 × right rows [1, 3)
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.At(0, 0), 11u);
  EXPECT_EQ(out.At(0, 1), 21u);
  EXPECT_EQ(out.At(0, 2), 101u);
  EXPECT_EQ(out.At(1, 0), 11u);
  EXPECT_EQ(out.At(1, 1), 21u);
  EXPECT_EQ(out.At(1, 2), 102u);
}

TEST(ColumnBatch, AppendGatherSelectsRowsInSelOrder) {
  Rng rng(0x6A77);
  TupleSet set = RandomTupleSet(&rng, 3, 40);
  ColumnBatch cols = ColumnBatch::FromRows(set);
  std::vector<uint32_t> sel = {7, 3, 3, 39, 0};
  ColumnBatch out(set.slots());
  out.AppendGather(cols, sel.data(), sel.size());
  ASSERT_EQ(out.size(), sel.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(out.At(i, c), set.At(sel[i], c));
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel fuzz: Vector variants against the Scalar oracle on seeded random
// columns — sizes straddling the 4/8-lane boundaries, plus adversarial
// all-match/none-match/tie patterns.

std::vector<NodeId> RandomColumn(Rng* rng, size_t n, uint32_t max) {
  std::vector<NodeId> col(n);
  for (size_t i = 0; i < n; ++i) {
    col[i] = static_cast<NodeId>(rng->NextBelow(max));
  }
  return col;
}

const size_t kFuzzSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                             31, 33, 64, 100, 257, 1000};

TEST(KernelFuzz, SelContainedMatchesScalarOracle) {
  Rng rng(0xFACE01);
  for (size_t n : kFuzzSizes) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<NodeId> col = RandomColumn(&rng, n, 1 << 10);
      // Mix narrow, wide, empty and full windows (hi may precede lo).
      NodeId lo = static_cast<NodeId>(rng.NextBelow(1 << 10));
      NodeId hi = rng.NextBool(0.3)
                      ? static_cast<NodeId>(rng.NextBelow(1 << 10))
                      : lo + static_cast<NodeId>(rng.NextBelow(128));
      std::vector<uint32_t> sel_s(n + 1, 0xDEAD), sel_v(n + 1, 0xDEAD);
      size_t ks = kernels::SelContainedScalar(col.data(), n, lo, hi,
                                              sel_s.data());
      size_t kv = kernels::SelContainedVector(col.data(), n, lo, hi,
                                              sel_v.data());
      ASSERT_EQ(ks, kv) << "n=" << n << " lo=" << lo << " hi=" << hi;
      EXPECT_TRUE(std::equal(sel_s.begin(), sel_s.begin() + ks,
                             sel_v.begin()));
      EXPECT_EQ(kernels::CountContainedScalar(col.data(), n, lo, hi),
                kernels::CountContainedVector(col.data(), n, lo, hi));
      EXPECT_EQ(kernels::CountContainedVector(col.data(), n, lo, hi), ks);
    }
  }
}

TEST(KernelFuzz, SelContainedBoundaryValues) {
  // Sign-bias edge cases: values around 0, 0x7FFFFFFF and 0xFFFFFFFF are
  // where the biased signed compare could go wrong.
  const std::vector<NodeId> col = {0u,          1u,          0x7FFFFFFEu,
                                   0x7FFFFFFFu, 0x80000000u, 0x80000001u,
                                   0xFFFFFFFEu, 0xFFFFFFFFu};
  const NodeId bounds[] = {0u, 1u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu};
  for (NodeId lo : bounds) {
    for (NodeId hi : bounds) {
      std::vector<uint32_t> sel_s(col.size()), sel_v(col.size());
      size_t ks = kernels::SelContainedScalar(col.data(), col.size(), lo, hi,
                                              sel_s.data());
      size_t kv = kernels::SelContainedVector(col.data(), col.size(), lo, hi,
                                              sel_v.data());
      ASSERT_EQ(ks, kv) << "lo=" << lo << " hi=" << hi;
      EXPECT_TRUE(std::equal(sel_s.begin(), sel_s.begin() + ks,
                             sel_v.begin()));
    }
  }
}

TEST(KernelFuzz, SelEqualsMatchesScalarOracle) {
  Rng rng(0xFACE02);
  for (size_t n : kFuzzSizes) {
    for (int iter = 0; iter < 20; ++iter) {
      // Small value domain so equality hits are dense.
      std::vector<NodeId> col32 = RandomColumn(&rng, n, 8);
      uint32_t v32 = static_cast<uint32_t>(rng.NextBelow(8));
      std::vector<uint32_t> sel_s(n + 1), sel_v(n + 1);
      size_t ks =
          kernels::SelEqualsU32Scalar(col32.data(), n, v32, sel_s.data());
      size_t kv =
          kernels::SelEqualsU32Vector(col32.data(), n, v32, sel_v.data());
      ASSERT_EQ(ks, kv) << "n=" << n;
      EXPECT_TRUE(std::equal(sel_s.begin(), sel_s.begin() + ks,
                             sel_v.begin()));

      std::vector<uint16_t> col16(n);
      for (size_t i = 0; i < n; ++i) {
        col16[i] = static_cast<uint16_t>(rng.NextBelow(6));
      }
      uint16_t v16 = static_cast<uint16_t>(rng.NextBelow(6));
      ks = kernels::SelEqualsU16Scalar(col16.data(), n, v16, sel_s.data());
      kv = kernels::SelEqualsU16Vector(col16.data(), n, v16, sel_v.data());
      ASSERT_EQ(ks, kv) << "n=" << n;
      EXPECT_TRUE(std::equal(sel_s.begin(), sel_s.begin() + ks,
                             sel_v.begin()));
    }
  }
}

TEST(KernelFuzz, RunLengthEndMatchesScalarOracle) {
  Rng rng(0xFACE03);
  for (size_t n : kFuzzSizes) {
    if (n == 0) continue;  // RunLengthEnd requires i < n
    for (int iter = 0; iter < 20; ++iter) {
      // Sorted column with heavy ties — the join-group shape.
      std::vector<NodeId> col = RandomColumn(&rng, n, 5);
      std::sort(col.begin(), col.end());
      for (int probe = 0; probe < 8; ++probe) {
        size_t i = rng.NextBelow(n);
        EXPECT_EQ(kernels::RunLengthEndScalar(col.data(), n, i),
                  kernels::RunLengthEndVector(col.data(), n, i))
            << "n=" << n << " i=" << i;
      }
      EXPECT_EQ(kernels::RunLengthEndScalar(col.data(), n, 0),
                kernels::RunLengthEndVector(col.data(), n, 0));
    }
  }
}

TEST(KernelFuzz, IsNonDecreasingMatchesScalarOracle) {
  Rng rng(0xFACE04);
  for (size_t n : kFuzzSizes) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<NodeId> col = RandomColumn(&rng, n, 64);
      if (rng.NextBool(0.5)) std::sort(col.begin(), col.end());
      EXPECT_EQ(kernels::IsNonDecreasingScalar(col.data(), n),
                kernels::IsNonDecreasingVector(col.data(), n))
          << "n=" << n;
    }
    // Sorted except one late inversion: the tail the lane loop must catch.
    if (n >= 2) {
      std::vector<NodeId> col(n);
      for (size_t i = 0; i < n; ++i) col[i] = static_cast<NodeId>(i + 1);
      col[n - 1] = 0;
      EXPECT_FALSE(kernels::IsNonDecreasingScalar(col.data(), n));
      EXPECT_FALSE(kernels::IsNonDecreasingVector(col.data(), n));
    }
  }
}

TEST(KernelFuzz, GatherU32MatchesScalarOracle) {
  Rng rng(0xFACE05);
  for (size_t n : kFuzzSizes) {
    std::vector<uint32_t> src = RandomColumn(&rng, std::max<size_t>(n, 1),
                                             1u << 30);
    std::vector<uint32_t> idx(n);
    for (size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<uint32_t>(rng.NextBelow(src.size()));
    }
    std::vector<uint32_t> dst_s(n, 0xABAB), dst_v(n, 0xCDCD);
    kernels::GatherU32Scalar(src.data(), idx.data(), n, dst_s.data());
    kernels::GatherU32Vector(src.data(), idx.data(), n, dst_v.data());
    EXPECT_EQ(dst_s, dst_v) << "n=" << n;
  }
}

TEST(KernelDispatch, ToggleSelectsVariantAndIsaIsReported) {
  const bool original = SimdEnabled();
  SetSimdEnabled(false);
  EXPECT_FALSE(SimdEnabled());
  SetSimdEnabled(true);
  EXPECT_TRUE(SimdEnabled());
  SetSimdEnabled(original);
  const std::string isa = SimdIsa();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "scalar") << isa;

  // The dispatching entry point must agree with the oracle either way.
  Rng rng(0xD15);
  std::vector<NodeId> col = RandomColumn(&rng, 100, 1 << 8);
  std::vector<uint32_t> sel_a(100), sel_b(100);
  for (bool simd : {false, true}) {
    SetSimdEnabled(simd);
    size_t ka = kernels::SelContained(col.data(), col.size(), 10, 200,
                                      sel_a.data());
    size_t kb = kernels::SelContainedScalar(col.data(), col.size(), 10, 200,
                                            sel_b.data());
    ASSERT_EQ(ka, kb);
    EXPECT_TRUE(std::equal(sel_a.begin(), sel_a.begin() + ka, sel_b.begin()));
  }
  SetSimdEnabled(original);
}

}  // namespace
}  // namespace sjos
