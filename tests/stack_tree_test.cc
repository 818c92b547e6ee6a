#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "exec/executor.h"
#include "exec/operator.h"
#include "exec/stack_tree.h"
#include "storage/catalog.h"
#include "xml/generators/tree_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

Database Db(std::string_view xml) {
  return Database::Open(std::move(ParseXml(xml)).value());
}

/// Candidate list of the first pattern node with tag `tag` mapped to
/// pattern slot `slot`.
ColumnBatch Candidates(const Database& db, std::string_view tag,
                       PatternNodeId slot) {
     ColumnBatch set({slot});
  TagId id = db.doc().dict().Find(tag);
  if (id != kInvalidTag) {
    for (NodeId n : db.index().Postings(id)) set.AppendRow(&n);
  }
  set.set_ordered_by_slot(0);
  return set;
}

/// Brute-force reference join over two single-column inputs.
std::vector<std::pair<NodeId, NodeId>> RefJoin(const Database& db,
                                               const ColumnBatch& anc,
                                                  const ColumnBatch& desc,
                                                  Axis axis) {
     std::vector<std::pair<NodeId, NodeId>> out;
  for (size_t i = 0; i < anc.size(); ++i) {
    for (size_t j = 0; j < desc.size(); ++j) {
      NodeId a = anc.At(i, 0);
      NodeId d = desc.At(j, 0);
      bool match = axis == Axis::kDescendant ? db.doc().IsAncestor(a, d)
                                             : db.doc().IsParent(a, d);
      if (match) out.emplace_back(a, d);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<NodeId, NodeId>> PairsOf(const ColumnBatch& set) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (size_t i = 0; i < set.size(); ++i) {
    out.emplace_back(set.At(i, 0), set.At(i, 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(StackTreeTest, DescBasicAncestorDescendant) {
  Database db = Db("<a><b><c/><b><c/></b></b><c/></a>");
  ColumnBatch b = Candidates(db, "b", 0);
  ColumnBatch c = Candidates(db, "c", 1);
  JoinStats stats;
  ColumnBatch out = std::move(StackTreeJoin(db.doc(), b, 0, c, 0,
                                            Axis::kDescendant,
                                            /*output_by_ancestor=*/false,
                                            &stats))
                        .value();
  EXPECT_EQ(PairsOf(out), RefJoin(db, b, c, Axis::kDescendant));
  EXPECT_EQ(stats.output_rows, out.size());
  EXPECT_GT(stats.stack_pushes, 0u);
  // Desc output is ordered by the descendant column (slot 1 of output).
  EXPECT_TRUE(out.IsSortedBySlot(1));
  EXPECT_EQ(out.OrderedByNode(), 1);
}

TEST(StackTreeTest, AncOutputOrderedByAncestor) {
  Database db = Db("<a><b><c/><b><c/></b></b><b><c/></b></a>");
  ColumnBatch b = Candidates(db, "b", 0);
  ColumnBatch c = Candidates(db, "c", 1);
  ColumnBatch out = std::move(StackTreeJoin(db.doc(), b, 0, c, 0,
                                            Axis::kDescendant,
                                            /*output_by_ancestor=*/true,
                                            nullptr))
                        .value();
  EXPECT_EQ(PairsOf(out), RefJoin(db, b, c, Axis::kDescendant));
  EXPECT_TRUE(out.IsSortedBySlot(0));
  EXPECT_EQ(out.OrderedByNode(), 0);
}

TEST(StackTreeTest, ParentChildFiltersLevels) {
  Database db = Db("<a><b><x/><b><x/></b></b></a>");
  ColumnBatch b = Candidates(db, "b", 0);
  ColumnBatch x = Candidates(db, "x", 1);
  ColumnBatch out = std::move(StackTreeJoin(db.doc(), b, 0, x, 0, Axis::kChild,
                                            false, nullptr))
                        .value();
  EXPECT_EQ(PairsOf(out), RefJoin(db, b, x, Axis::kChild));
  EXPECT_EQ(out.size(), 2u);  // each x has exactly one b parent
}

TEST(StackTreeTest, SelfJoinOnRecursiveTag) {
  Database db = Db("<m><m><m/></m><m/></m>");
  ColumnBatch outer = Candidates(db, "m", 0);
  ColumnBatch inner = Candidates(db, "m", 1);
  ColumnBatch out = std::move(StackTreeJoin(db.doc(), outer, 0, inner, 0,
                                            Axis::kDescendant, false, nullptr))
                        .value();
  // Pairs: (0,1),(0,2),(0,3),(1,2) — never (x,x).
  EXPECT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_LT(out.At(i, 0), out.At(i, 1));
  }
}

TEST(StackTreeTest, EmptyInputsYieldEmptyOutput) {
  Database db = Db("<a><b/></a>");
  ColumnBatch b = Candidates(db, "b", 0);
  ColumnBatch none = Candidates(db, "zzz", 1);
  ColumnBatch out1 = std::move(StackTreeJoin(db.doc(), b, 0, none, 0,
                                             Axis::kDescendant, false, nullptr))
                         .value();
  EXPECT_TRUE(out1.empty());
  ColumnBatch out2 = std::move(StackTreeJoin(db.doc(), none, 0, b, 0,
                                             Axis::kDescendant, true, nullptr))
                         .value();
  EXPECT_TRUE(out2.empty());
  EXPECT_EQ(out1.arity(), 2u);
}

TEST(StackTreeTest, GroupCrossProductExpansion) {
  Database db = Db("<a><b><c/></b></a>");
  // Two tuples share the same b element (payload differs in slot 5).
  ColumnBatch left({0, 5});
  NodeId r1[] = {1, 100};
  NodeId r2[] = {1, 200};
  left.AppendRow(r1);
  left.AppendRow(r2);
  left.set_ordered_by_slot(0);
  ColumnBatch right = Candidates(db, "c", 1);
  ColumnBatch out = std::move(StackTreeJoin(db.doc(), left, 0, right, 0,
                                            Axis::kDescendant, false, nullptr))
                        .value();
  ASSERT_EQ(out.size(), 2u);  // cross product 2 x 1
  EXPECT_EQ(out.At(0, 1), 100u);
  EXPECT_EQ(out.At(1, 1), 200u);
}

TEST(StackTreeTest, RejectsUnsortedInput) {
  Database db = Db("<a><b/><b/></a>");
  ColumnBatch bad({0});
  NodeId x = 2, y = 1;
  bad.AppendRow(&x);
  bad.AppendRow(&y);
  ColumnBatch c = Candidates(db, "b", 1);
  EXPECT_FALSE(StackTreeJoin(db.doc(), bad, 0, c, 0, Axis::kDescendant, false,
                             nullptr)
                   .ok());
}

TEST(StackTreeTest, RejectsOverlappingSchemas) {
  Database db = Db("<a><b/></a>");
  ColumnBatch x = Candidates(db, "a", 0);
  ColumnBatch y = Candidates(db, "b", 0);
  EXPECT_FALSE(
      StackTreeJoin(db.doc(), x, 0, y, 0, Axis::kDescendant, false, nullptr)
          .ok());
}

TEST(StackTreeTest, RejectsBadSlot) {
  Database db = Db("<a><b/></a>");
  ColumnBatch x = Candidates(db, "a", 0);
  ColumnBatch y = Candidates(db, "b", 1);
  EXPECT_FALSE(
      StackTreeJoin(db.doc(), x, 3, y, 0, Axis::kDescendant, false, nullptr)
          .ok());
}

/// Property sweep: both algorithm variants agree with the brute-force
/// reference on random trees, for both axes, across seeds and shapes.
struct SweepParam {
  uint64_t seed;
  uint32_t max_depth;
  uint32_t num_tags;
};

class StackTreeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(StackTreeSweep, MatchesBruteForceOnRandomTrees) {
  const SweepParam param = GetParam();
  TreeGenConfig config;
  config.target_nodes = 600;
  config.max_depth = param.max_depth;
  config.num_tags = param.num_tags;
  config.seed = param.seed;
  Database db = Database::Open(GenerateTree(config).value());
  for (uint32_t t0 = 0; t0 < std::min<uint32_t>(param.num_tags, 3); ++t0) {
    for (uint32_t t1 = 0; t1 < std::min<uint32_t>(param.num_tags, 3); ++t1) {
      ColumnBatch anc = Candidates(db, "t" + std::to_string(t0), 0);
      ColumnBatch desc = Candidates(db, "t" + std::to_string(t1), 1);
      for (Axis axis : {Axis::kDescendant, Axis::kChild}) {
        auto ref = RefJoin(db, anc, desc, axis);
        for (bool by_anc : {false, true}) {
          Result<ColumnBatch> out = StackTreeJoin(db.doc(), anc, 0, desc, 0,
                                                  axis, by_anc, nullptr);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          EXPECT_EQ(PairsOf(out.value()), ref);
          EXPECT_TRUE(out.value().IsSortedBySlot(by_anc ? 0 : 1));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StackTreeSweep,
    ::testing::Values(SweepParam{1, 3, 2}, SweepParam{2, 6, 3},
                      SweepParam{3, 10, 2}, SweepParam{4, 14, 4},
                      SweepParam{5, 4, 1}, SweepParam{6, 8, 2},
                      SweepParam{7, 12, 3}, SweepParam{8, 5, 5}));

// ---------------------------------------------------------------------------
// The streaming join operators against the whole-input StackTreeJoin. Both
// run the one Stack-Tree merge, so at every batch size the operator's rows
// must be the whole-input call's rows, byte for byte and in order, with the
// same counters — also when the row budget cuts the join short.

/// Serves a fixed batch in slices of at most ctx->batch_rows: a stand-in
/// child that feeds the join operator arbitrary sorted inputs.
class BatchSource : public Operator {
 public:
  BatchSource(ExecContext* ctx, int plan_index, ColumnBatch rows)
      : Operator(ctx, plan_index, rows.slots(), rows.ordered_by_slot()),
        rows_(std::move(rows)) {}
  Status Open() override { return Status::OK(); }
  Status NextBatch(ColumnBatch* out, bool* eos) override {
    const size_t take = std::min(ctx_->batch_rows, rows_.size() - pos_);
    out->AppendRange(rows_, pos_, take);
    pos_ += take;
    *eos = pos_ == rows_.size();
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  const char* Name() const override { return "BatchSource"; }

 private:
  ColumnBatch rows_;
  size_t pos_ = 0;
};

struct JoinCase {
  ColumnBatch anc;
  size_t anc_slot;
  ColumnBatch desc;
  size_t desc_slot;
  Axis axis;
  bool by_ancestor;
  uint64_t max_output_rows = 0;
};

struct Streamed {
  Status status;
  ColumnBatch rows;  // every batch the operator returned before any error
  ExecStats stats;
  OpStats join;
};

/// Pulls the streaming join operator over `c` to the end (or the first
/// error) at `batch_rows`, checking the batch contract and that the live
/// accounting balances after Close.
Streamed StreamJoin(const Database& db, const JoinCase& c, size_t batch_rows) {
  Streamed r;
  std::vector<OpStats> op_stats(3);
  ExecContext ctx;
  ctx.db = &db;
  ctx.batch_rows = batch_rows;
  ctx.max_join_output_rows = c.max_output_rows;
  ctx.stats = &r.stats;
  ctx.op_stats = &op_stats;
  auto left = std::make_unique<BatchSource>(&ctx, 1, c.anc);
  auto right = std::make_unique<BatchSource>(&ctx, 2, c.desc);
  std::unique_ptr<Operator> join;
  if (c.by_ancestor) {
    join = std::make_unique<StackTreeAncOp>(&ctx, 0, c.axis, c.anc_slot,
                                            c.desc_slot, std::move(left),
                                            std::move(right));
  } else {
    join = std::make_unique<StackTreeDescOp>(&ctx, 0, c.axis, c.anc_slot,
                                             c.desc_slot, std::move(left),
                                             std::move(right));
  }
  r.rows = join->MakeBatch();
  r.status = Operator::OpenTimed(join.get());
  ColumnBatch batch = join->MakeBatch();
  bool eos = false;
  while (r.status.ok() && !eos) {
    r.status = Operator::PullTimed(join.get(), &batch, &eos);
    if (!r.status.ok()) break;
    EXPECT_LE(batch.size(), batch_rows);
    EXPECT_TRUE(eos || !batch.empty()) << "empty batch without eos";
    r.rows.AppendBatch(batch);
  }
  EXPECT_TRUE(join->Close().ok());
  EXPECT_EQ(ctx.cur_live_rows, 0u);
  EXPECT_EQ(ctx.cur_live_bytes, 0u);
  r.join = op_stats[0];
  return r;
}

void ExpectSameRows(const ColumnBatch& got, const ColumnBatch& want) {
  ASSERT_EQ(got.slots(), want.slots());
  EXPECT_EQ(got.ordered_by_slot(), want.ordered_by_slot());
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.arity(); ++c) {
    EXPECT_TRUE(std::equal(got.Col(c), got.Col(c) + got.size(), want.Col(c)))
        << "column " << c << " differs";
  }
}

/// Runs `c` through StackTreeJoin and through the operator at batch sizes
/// 1, 2, 7 and 1024, and checks that they agree.
void ExpectOperatorMatchesKernel(const Database& db, const JoinCase& c) {
  JoinStats kernel_stats;
  Result<ColumnBatch> kernel =
      StackTreeJoin(db.View(), c.anc, c.anc_slot, c.desc, c.desc_slot, c.axis,
                    c.by_ancestor, &kernel_stats, c.max_output_rows);
  for (size_t batch_rows : {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    Streamed s = StreamJoin(db, c, batch_rows);
    EXPECT_EQ(s.stats.join_output_rows, kernel_stats.output_rows);
    EXPECT_EQ(s.stats.element_pairs, kernel_stats.element_pairs);
    if (kernel.ok()) {
      ASSERT_TRUE(s.status.ok()) << s.status.ToString();
      ExpectSameRows(s.rows, kernel.value());
      continue;
    }
    // Both fail, with the same error; the operator's rows before the
    // failure are a prefix of the unbudgeted output.
    EXPECT_EQ(s.status.ToString(), kernel.status().ToString());
    ColumnBatch full =
        std::move(StackTreeJoin(db.View(), c.anc, c.anc_slot, c.desc,
                                c.desc_slot, c.axis, c.by_ancestor))
            .value();
    ASSERT_LE(s.rows.size(), full.size());
    ColumnBatch prefix(full.slots());
    prefix.set_ordered_by_slot(full.ordered_by_slot());
    prefix.AppendRange(full, 0, s.rows.size());
    ExpectSameRows(s.rows, prefix);
  }
}

/// `keys` (one column) with every row repeated `k` times, the copies told
/// apart by a payload column bound to pattern node `payload`: inputs whose
/// join groups span several rows.
ColumnBatch WithRuns(const ColumnBatch& keys, PatternNodeId payload,
                     NodeId k) {
  ColumnBatch out({keys.slots()[0], payload});
  for (size_t i = 0; i < keys.size(); ++i) {
    for (NodeId j = 0; j < k; ++j) {
      const NodeId row[] = {keys.At(i, 0), j};
      out.AppendRow(row);
    }
  }
  out.set_ordered_by_slot(0);
  return out;
}

TEST_P(StackTreeSweep, OperatorMatchesWholeInputJoin) {
  const SweepParam param = GetParam();
  TreeGenConfig config;
  config.target_nodes = 400;
  config.max_depth = param.max_depth;
  config.num_tags = param.num_tags;
  config.seed = param.seed;
  Database db = Database::Open(GenerateTree(config).value());
  auto tag = [&](uint32_t t) {
    return "t" + std::to_string(t % param.num_tags);
  };
  const ColumnBatch t0 = Candidates(db, tag(0), 0);
  const ColumnBatch t1 = Candidates(db, tag(1), 1);
  const ColumnBatch t2 = Candidates(db, tag(2), 2);
  // A join's output as the next join's input: (t0 STD t1) is ordered by
  // t1 with one row per t0 ancestor; (t1 STA t2) by t1 with one row per t2
  // descendant.
  const ColumnBatch t0_t1 =
      std::move(StackTreeJoin(db.View(), t0, 0, t1, 0, Axis::kDescendant,
                              /*output_by_ancestor=*/false))
          .value();
  const ColumnBatch t1_t2 =
      std::move(StackTreeJoin(db.View(), t1, 0, t2, 0, Axis::kDescendant,
                              /*output_by_ancestor=*/true))
          .value();
  struct Inputs {
    const char* name;
    ColumnBatch anc;
    size_t anc_slot;
    ColumnBatch desc;
    size_t desc_slot;
  };
  const Inputs inputs[] = {
      {"scans", t0, 0, t1, 0},
      {"join output as ancestor", t0_t1, 1, t2, 0},
      {"join output as descendant", t0, 0, t1_t2, 0},
      {"repeated rows", WithRuns(t0, 5, 3), 0, WithRuns(t1, 6, 2), 0},
  };
  for (const Inputs& in : inputs) {
    for (Axis axis : {Axis::kDescendant, Axis::kChild}) {
      for (bool by_anc : {false, true}) {
        SCOPED_TRACE(std::string(in.name) + (by_anc ? " Anc" : " Desc") +
                     (axis == Axis::kChild ? " /" : " //"));
        ExpectOperatorMatchesKernel(
            db, {in.anc, in.anc_slot, in.desc, in.desc_slot, axis, by_anc});
      }
    }
  }
}

/// Brute-force join of `c`'s inputs with the rows in the exact order each
/// variant emits them: Desc by (descendant element, ancestor row,
/// descendant row); Anc by (ancestor element, descendant element, ancestor
/// row, descendant row) — each matched element pair expands ancestor row
/// by ancestor row, so with one row per element this is (ancestor row,
/// descendant row).
ColumnBatch OrderedRefJoin(const Database& db, const JoinCase& c) {
  // (first key, second key, ancestor row, descendant row)
  std::vector<std::tuple<NodeId, NodeId, size_t, size_t>> hits;
  for (size_t i = 0; i < c.anc.size(); ++i) {
    for (size_t j = 0; j < c.desc.size(); ++j) {
      const NodeId a = c.anc.At(i, c.anc_slot);
      const NodeId d = c.desc.At(j, c.desc_slot);
      const bool match = c.axis == Axis::kDescendant
                             ? db.doc().IsAncestor(a, d)
                             : db.doc().IsParent(a, d);
      if (match) {
        hits.emplace_back(c.by_ancestor ? a : d, c.by_ancestor ? d : 0, i, j);
      }
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<PatternNodeId> slots = c.anc.slots();
  slots.insert(slots.end(), c.desc.slots().begin(), c.desc.slots().end());
  ColumnBatch out(std::move(slots));
  out.set_ordered_by_slot(c.by_ancestor
                              ? static_cast<int>(c.anc_slot)
                              : static_cast<int>(c.anc.arity() + c.desc_slot));
  std::vector<NodeId> row(out.arity());
  for (const auto& [k1, k2, i, j] : hits) {
    for (size_t k = 0; k < c.anc.arity(); ++k) row[k] = c.anc.At(i, k);
    for (size_t k = 0; k < c.desc.arity(); ++k) {
      row[c.anc.arity() + k] = c.desc.At(j, k);
    }
    out.AppendRow(row.data());
  }
  return out;
}

// Sorting the output, as MatchesBruteForceOnRandomTrees does, would hide a
// change in emission order: here the kernel's and the operator's rows must
// equal an independently ordered reference column by column, on trees
// deep enough to stack twenty nested ancestors.
TEST(StackTreeOrderTest, EmitsExactlyTheReferenceOrder) {
  for (uint32_t max_depth : {3u, 8u, 14u, 20u}) {
    for (uint64_t seed : {uint64_t{21}, uint64_t{22}}) {
      TreeGenConfig config;
      config.target_nodes = 300;
      config.max_depth = max_depth;
      config.num_tags = 2;
      config.seed = seed;
      Database db = Database::Open(GenerateTree(config).value());
      const ColumnBatch t0 = Candidates(db, "t0", 0);
      const ColumnBatch t1 = Candidates(db, "t1", 1);
      struct Inputs {
        const char* name;
        ColumnBatch anc;
        ColumnBatch desc;
      };
      const Inputs inputs[] = {
          {"scans", t0, t1},
          {"self join", t0, Candidates(db, "t0", 1)},
          {"repeated rows", WithRuns(t0, 5, 3), WithRuns(t1, 6, 2)},
      };
      for (const Inputs& in : inputs) {
        for (Axis axis : {Axis::kDescendant, Axis::kChild}) {
          for (bool by_anc : {false, true}) {
            SCOPED_TRACE(std::string(in.name) + (by_anc ? " Anc" : " Desc") +
                         (axis == Axis::kChild ? " /" : " //") + " depth " +
                         std::to_string(max_depth) + " seed " +
                         std::to_string(seed));
            const JoinCase c{in.anc, 0, in.desc, 0, axis, by_anc};
            const ColumnBatch want = OrderedRefJoin(db, c);
            Result<ColumnBatch> kernel = StackTreeJoin(
                db.View(), c.anc, 0, c.desc, 0, axis, by_anc);
            ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
            ExpectSameRows(kernel.value(), want);
            for (size_t batch_rows :
                 {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
              SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
              Streamed st = StreamJoin(db, c, batch_rows);
              ASSERT_TRUE(st.status.ok()) << st.status.ToString();
              ExpectSameRows(st.rows, want);
            }
          }
        }
      }
    }
  }
}

// Rows no open ancestor can match are skipped: empty <a/> elements close
// before the next descendant (dead ancestors, some at window ends), and
// the runs of <b/> between them meet an empty stack (unmatched descendant
// runs, three rows per element, so they straddle batch boundaries). The
// skips must change no row, counter or failure point, must leave dead
// ancestors off the stack, and must count the skipped rows dead: they are
// most of the descendant rows, so the windows would not compact otherwise.
TEST(StackTreeOperatorTest, SkipsRowsNoOpenAncestorCanMatch) {
  std::string xml = "<r>";
  for (int i = 0; i < 60; ++i) {
    xml += "<a/><a/>";
    for (int j = 0; j < 8; ++j) xml += "<b/>";
    xml += "<a><a/><b/><a><b/></a></a>";
  }
  xml += "</r>";
  Database db = Db(xml);
  const ColumnBatch a_keys = Candidates(db, "a", 0);
  const ColumnBatch b_keys = Candidates(db, "b", 1);
  // Live ancestors: those containing the first descendant after them.
  uint64_t live = 0;
  for (size_t i = 0; i < a_keys.size(); ++i) {
    const NodeId a = a_keys.At(i, 0);
    const NodeId* b = b_keys.Col(0);
    const NodeId* next = std::upper_bound(b, b + b_keys.size(), a);
    if (next != b + b_keys.size() && db.doc().IsAncestor(a, *next)) ++live;
  }
  ASSERT_EQ(live, 120u);  // two of the five <a> per repetition
  const ColumnBatch a = WithRuns(a_keys, 5, 2);
  const ColumnBatch b = WithRuns(b_keys, 6, 3);
  for (Axis axis : {Axis::kDescendant, Axis::kChild}) {
    for (bool by_anc : {false, true}) {
      SCOPED_TRACE(std::string(by_anc ? "Anc" : "Desc") +
                   (axis == Axis::kChild ? " /" : " //"));
      JoinCase c{a, 0, b, 0, axis, by_anc};
      JoinStats stats;
      const ColumnBatch full =
          std::move(StackTreeJoin(db.View(), a, 0, b, 0, axis, by_anc,
                                  &stats))
              .value();
      EXPECT_EQ(stats.stack_pushes, live);
      EXPECT_EQ(stats.max_stack_depth, 2u);
      ExpectSameRows(full, OrderedRefJoin(db, c));
      ExpectOperatorMatchesKernel(db, c);
      for (size_t batch_rows : {size_t{1}, size_t{7}}) {
        SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
        Streamed st = StreamJoin(db, c, batch_rows);
        ASSERT_TRUE(st.status.ok()) << st.status.ToString();
        // Skipped rows count as dead, so the windows still compact.
        EXPECT_LT(st.join.peak_live_rows, (a.size() + b.size()) / 4);
      }
      c.max_output_rows = full.size() / 2 + 1;
      ExpectOperatorMatchesKernel(db, c);
    }
  }
}

// One ancestor encloses the whole document. In the Anc variant every pair
// stays buffered until that ancestor pops at the very end, while nested
// ancestors and descendants that match nothing die along the way: the
// windows must compact under the buffered pairs, or the join's peak would
// grow with its inputs.
TEST(StackTreeOperatorTest, CompactsWindowsUnderBufferedAncPairs) {
  std::string xml = "<a><b/><b/><b/>";
  for (int i = 0; i < 300; ++i) xml += "<a><c/></a><c><b/></c>";
  xml += "</a>";
  Database db = Db(xml);
  const ColumnBatch a = Candidates(db, "a", 0);
  const ColumnBatch b = Candidates(db, "b", 1);
  ASSERT_EQ(a.size(), 301u);
  ASSERT_EQ(b.size(), 303u);
  const JoinCase c{a, 0, b, 0, Axis::kChild, /*by_ancestor=*/true};
  ExpectOperatorMatchesKernel(db, c);
  for (size_t batch_rows : {size_t{1}, size_t{7}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    Streamed s = StreamJoin(db, c, batch_rows);
    ASSERT_TRUE(s.status.ok()) << s.status.ToString();
    EXPECT_EQ(s.rows.size(), 3u);  // the root's three b children
    // Without compaction the windows would end up holding every input row.
    EXPECT_LT(s.join.peak_live_rows, (a.size() + b.size()) / 4);
  }
}

// A row budget that runs out inside one group cross product: both paths
// emit exactly the rows that fit and fail on the next, with the same
// counters, at every batch size.
TEST(StackTreeOperatorTest, RowBudgetFailsAtTheSameRow) {
  Database db = Db("<r><a><b/><b/><a><b/></a></a><a><b/></a></r>");
  // Three rows per ancestor element, two per descendant element: each
  // matched element pair expands to a 3 x 2 cross product.
  const ColumnBatch a = WithRuns(Candidates(db, "a", 0), 5, 3);
  const ColumnBatch b = WithRuns(Candidates(db, "b", 1), 6, 2);
  for (bool by_anc : {false, true}) {
    const uint64_t full =
        std::move(StackTreeJoin(db.View(), a, 0, b, 0, Axis::kDescendant,
                                by_anc))
            .value()
            .size();
    ASSERT_EQ(full, 5u * 6u);  // five matched element pairs
    for (uint64_t budget : {uint64_t{1}, uint64_t{3}, uint64_t{4},
                            uint64_t{17}, full - 1, full}) {
      SCOPED_TRACE(std::string(by_anc ? "Anc" : "Desc") +
                   " budget=" + std::to_string(budget));
      JoinCase c{a, 0, b, 0, Axis::kDescendant, by_anc};
      c.max_output_rows = budget;
      ExpectOperatorMatchesKernel(db, c);
      if (budget < full) {
        EXPECT_EQ(StreamJoin(db, c, 2).stats.join_output_rows, budget);
      }
    }
  }
}

}  // namespace
}  // namespace sjos
