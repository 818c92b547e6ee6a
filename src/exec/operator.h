// The streaming physical operator interface: Open() / NextBatch() /
// Close() over fixed-capacity row batches, Volcano-style but batched the
// way RadegastXDB structures its operators. This is the physical
// realization of the paper's Sec. 4.3 distinction: a "fully pipelined"
// plan (no Sort) runs in O(batch × plan depth) intermediate memory because
// the Stack-Tree join operators carry their stack state *across* input
// batches instead of demanding whole inputs, exactly as Timber streams
// Stack-Tree-Desc output into the next join. The join operators run the
// one Stack-Tree merge of exec/stack_tree.h over bounded row windows.
//
// Contracts every operator obeys:
//   * NextBatch appends at most ExecContext::batch_rows rows to `out`
//     (which the caller cleared) and sets `*eos` once the stream is
//     exhausted; rows may still be appended on the eos call. An operator
//     never returns an empty batch without eos.
//   * Operators fully drain their children before reporting eos, so
//     engine-level counters (rows scanned, join outputs, element pairs)
//     do not depend on the batch size — the property the differential
//     tests pin by running every plan at several batch sizes.
//   * Output rows appear in the order the whole-input algorithm would
//     produce (document order of the ordering column; Stack-Tree emission
//     order within it), so results are byte-identical across batch sizes.
//
// Live-row accounting: every row resident in an operator's own buffers is
// registered with the shared ExecContext, whose high-water mark becomes
// ExecStats::peak_live_rows.

#ifndef SJOS_EXEC_OPERATOR_H_
#define SJOS_EXEC_OPERATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/op_stats.h"
#include "exec/stack_tree.h"
#include "plan/plan.h"
#include "query/pattern.h"
#include "storage/catalog.h"

namespace sjos {

/// Default NextBatch row capacity. The SJOS_EXEC_BATCH_ROWS environment
/// variable overrides it when ExecOptions::batch_rows is 0 (auto); CI runs
/// the suite once at 1 to shake out batch-boundary bugs.
inline constexpr size_t kDefaultExecBatchRows = 1024;

struct ExecStats;
class QueryGovernor;

/// Shared state for one streaming execution: the database, batch capacity,
/// engine-level counters, per-operator counters, and the live-row/-byte
/// high-water marks.
struct ExecContext {
  const Database* db = nullptr;
  const Pattern* pattern = nullptr;
  size_t batch_rows = kDefaultExecBatchRows;
  uint64_t max_join_output_rows = 0;  // 0 = unlimited
  ExecStats* stats = nullptr;         // engine-level counters (required)
  std::vector<OpStats>* op_stats = nullptr;  // per plan node (required)
  /// Deadline/byte-budget enforcement, polled at every PullTimed batch
  /// boundary. Null when the query runs without limits (the common case).
  /// The governor may halve batch_rows once as byte-budget relief.
  QueryGovernor* governor = nullptr;

  uint64_t cur_live_rows = 0;
  uint64_t peak_live_rows = 0;
  /// Byte figures are rows × arity × sizeof(NodeId) charged by the
  /// operator owning the buffer — the payload cells, not allocator
  /// overhead — so they are deterministic for a fixed engine config.
  uint64_t cur_live_bytes = 0;
  uint64_t peak_live_bytes = 0;
  /// Published copy of cur_live_bytes for the service's in-flight view
  /// (see ExecOptions::live_bytes_observer); null = not observed.
  std::atomic<uint64_t>* live_observer = nullptr;

  void AddLive(uint64_t rows, uint64_t bytes) {
    cur_live_rows += rows;
    cur_live_bytes += bytes;
    if (cur_live_rows > peak_live_rows) peak_live_rows = cur_live_rows;
    if (cur_live_bytes > peak_live_bytes) peak_live_bytes = cur_live_bytes;
    if (live_observer != nullptr) {
      live_observer->store(cur_live_bytes, std::memory_order_relaxed);
    }
  }
  void SubLive(uint64_t rows, uint64_t bytes) {
    cur_live_rows -= rows;
    cur_live_bytes -= bytes;
    if (live_observer != nullptr) {
      live_observer->store(cur_live_bytes, std::memory_order_relaxed);
    }
  }
};

/// Base class of all streaming operators.
class Operator {
 public:
  Operator(ExecContext* ctx, int plan_index, std::vector<PatternNodeId> slots,
           int ordered_by_slot);
  virtual ~Operator();

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  virtual Status Open() = 0;
  /// Appends up to ctx->batch_rows rows to `out` (cleared by the caller,
  /// carrying this operator's schema) and sets `*eos` when exhausted.
  /// Batches are columnar end to end; Executor::Execute converts the
  /// finished result to a row-major TupleSet.
  virtual Status NextBatch(ColumnBatch* out, bool* eos) = 0;
  virtual Status Close() = 0;
  /// Static operator name used as the trace-span suffix ("IndexScan",
  /// "Sort", "Navigate", "StackTreeAnc", "StackTreeDesc").
  virtual const char* Name() const = 0;

  const std::vector<PatternNodeId>& slots() const { return slots_; }
  size_t arity() const { return slots_.size(); }
  int ordered_by_slot() const { return ordered_by_slot_; }
  int plan_index() const { return plan_index_; }

  /// Empty batch carrying this operator's schema and ordering property.
  ColumnBatch MakeBatch() const;

  /// Times `op->Open()` into its OpStats.
  static Status OpenTimed(Operator* op);
  /// Clears `out`, times `op->NextBatch` into its OpStats, and accumulates
  /// rows/batches. `out` must carry `op`'s schema.
  static Status PullTimed(Operator* op, ColumnBatch* out, bool* eos);

 protected:
  OpStats& op_stats() { return (*ctx_->op_stats)[size_t(plan_index_)]; }

  /// Registers `rows` as resident in this operator's buffers (and the
  /// global live count); OwnSub releases them. Bytes are charged at this
  /// operator's output width (rows × arity × sizeof(NodeId)) — an
  /// approximation for a navigation input batch, but Add and Sub use the
  /// same factor so the accounting always balances.
  void OwnAdd(uint64_t rows) { OwnAdd(rows, rows * arity() * sizeof(NodeId)); }
  void OwnSub(uint64_t rows) { OwnSub(rows, rows * arity() * sizeof(NodeId)); }
  /// The same with an explicit byte figure, for buffers narrower than the
  /// output or holding more than rows.
  void OwnAdd(uint64_t rows, uint64_t bytes);
  void OwnSub(uint64_t rows, uint64_t bytes);

  /// Refills `*batch` (owned by this operator and registered via
  /// OwnAdd/OwnSub) from `child` unless `*child_eos`; no-op at eos.
  Status PullChild(Operator* child, ColumnBatch* batch, size_t* cursor,
                   bool* child_eos);

  ExecContext* ctx_;

 private:
  int plan_index_;
  std::vector<PatternNodeId> slots_;
  int ordered_by_slot_;
  uint64_t own_live_rows_ = 0;
};

/// Streaming index scan: walks the tag's posting list batch by batch,
/// applying the pattern node's value predicate. Never holds rows.
/// Predicate-free scans bulk-copy posting-arena slices straight into the
/// output column.
class ScanOperator : public Operator {
 public:
  ScanOperator(ExecContext* ctx, int plan_index, PatternNodeId node);
  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eos) override;
  Status Close() override;
  const char* Name() const override { return "IndexScan"; }

 private:
  PatternNodeId node_;
  const PatternNode* pnode_ = nullptr;
  const NodeId* data_ = nullptr;
  size_t count_ = 0;
  size_t pos_ = 0;
  // Overlay merge: when the database carries a differential overlay the
  // scan materializes the merged posting list here and streams from it.
  std::vector<NodeId> merged_;
};

/// Sort: the only blocking operator. Open() drains the child into a
/// buffer, sorts it by the requested pattern node, and NextBatch slices
/// the buffer out; the buffer is the node's peak_live_rows.
class SortOperator : public Operator {
 public:
  /// Fails (Internal) at construction-time validation in Compile if
  /// `sort_by` is not in the child schema; see CompileOperatorTree.
  SortOperator(ExecContext* ctx, int plan_index, PatternNodeId sort_by,
               size_t sort_slot, std::unique_ptr<Operator> child);
  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eos) override;
  Status Close() override;
  const char* Name() const override { return "Sort"; }

 private:
  size_t sort_slot_;
  std::unique_ptr<Operator> child_;
  ColumnBatch buffer_;
  size_t emit_row_ = 0;
};

/// Streaming navigation: per input tuple, sweeps the anchor's subtree tag
/// column into a selection vector of matches, emitting them in chunks and
/// resuming mid-subtree across batch boundaries. Holds one input batch;
/// preserves the input's order.
class NavigateOperator : public Operator {
 public:
  NavigateOperator(ExecContext* ctx, int plan_index, PatternNodeId anchor,
                   size_t anchor_slot, PatternNodeId target, Axis axis,
                   std::unique_ptr<Operator> child);
  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eos) override;
  Status Close() override;
  const char* Name() const override { return "Navigate"; }

 private:
  PatternNodeId target_;
  size_t anchor_slot_;
  Axis axis_;
  std::unique_ptr<Operator> child_;
  TagId tag_ = 0;
  bool tag_valid_ = false;

  ColumnBatch input_;
  size_t input_row_ = 0;
  bool child_eos_ = false;
  bool row_active_ = false;  // true while the current subtree is mid-emit
  size_t span_ = 0;          // candidates in the current subtree
  size_t cand_off_ = 0;      // first unexamined subtree offset
  std::vector<uint32_t> sel_;  // scratch selection vector (tag sweep)
  std::vector<NodeId> matches_;     // match keys (tag/level/predicate)
  std::vector<uint32_t> match_off_;  // candidate offset of each match
  size_t sel_count_ = 0;
  size_t sel_pos_ = 0;
};

/// The streaming Stack-Tree structural join: a thin driver over the one
/// Stack-Tree merge (StackTreeMerge in stack_tree.h). It pulls child
/// batches into one ancestor and one descendant row window, runs the merge
/// over them, and lets the merge write straight into `out`; the merge's
/// stack persists across batch boundaries, so no input is ever fully
/// materialized. Emission order and all counters are those of the
/// whole-input StackTreeJoin, at every batch size.
///
/// A window row stays only while a stack entry or a buffered pair refers
/// to it; a window is compacted before each refill once its dead rows
/// outnumber its live ones. The Anc variant buffers 8-byte (ancestor
/// group, descendant group) pairs per stack entry until the entry pops —
/// the inherent cost of ancestor ordering, not of batching.
class StackTreeJoinBase : public Operator {
 public:
  StackTreeJoinBase(ExecContext* ctx, int plan_index, bool output_by_ancestor,
                    Axis axis, size_t anc_slot, size_t desc_slot,
                    std::unique_ptr<Operator> left,
                    std::unique_ptr<Operator> right);
  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eos) override;
  Status Close() override;
  const char* Name() const override {
    return by_ancestor_ ? "StackTreeAnc" : "StackTreeDesc";
  }

 private:
  /// One join input: its child, the row window the merge reads, and the
  /// last join key pulled (the sortedness check spans batches).
  struct Input {
    std::unique_ptr<Operator> child;
    size_t slot;
    const char* unsorted_message;
    ColumnBatch window;
    ColumnBatch batch;  // pull buffer
    bool eos = false;
    bool have_last = false;
    NodeId last = 0;
  };

  /// Pulls one batch of `in`'s child into `in->batch`, checking its join
  /// column order.
  Status Pull(Input* in);
  /// Compacts `in`'s window, then appends one pulled batch to it.
  Status Refill(Input* in);
  /// Consumes the ancestor tail so upstream counters and the sortedness
  /// check cover the whole input, whatever the batch size.
  Status DrainLeft();
  /// Charges the windows' rows and the merge's buffered pairs as live.
  void SyncLive();

  bool by_ancestor_;
  Axis axis_;
  Input anc_, desc_;
  std::optional<StackTreeMerge> merge_;
  bool done_ = false;
  uint64_t live_rows_ = 0;
  uint64_t live_bytes_ = 0;
};

class StackTreeDescOp : public StackTreeJoinBase {
 public:
  StackTreeDescOp(ExecContext* ctx, int plan_index, Axis axis, size_t anc_slot,
                  size_t desc_slot, std::unique_ptr<Operator> left,
                  std::unique_ptr<Operator> right)
      : StackTreeJoinBase(ctx, plan_index, /*output_by_ancestor=*/false, axis,
                          anc_slot, desc_slot, std::move(left),
                          std::move(right)) {}
};

class StackTreeAncOp : public StackTreeJoinBase {
 public:
  StackTreeAncOp(ExecContext* ctx, int plan_index, Axis axis, size_t anc_slot,
                 size_t desc_slot, std::unique_ptr<Operator> left,
                 std::unique_ptr<Operator> right)
      : StackTreeJoinBase(ctx, plan_index, /*output_by_ancestor=*/true, axis,
                          anc_slot, desc_slot, std::move(left),
                          std::move(right)) {}
};

/// Compiles the plan subtree rooted at `index` into a streaming operator
/// tree, validating schemas (join endpoints, overlapping inputs, navigate
/// anchors) before any row is produced.
Result<std::unique_ptr<Operator>> CompileOperatorTree(ExecContext* ctx,
                                                      const PhysicalPlan& plan,
                                                      int index);

}  // namespace sjos

#endif  // SJOS_EXEC_OPERATOR_H_
