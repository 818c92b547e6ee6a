// The Stack-Tree family of binary structural join algorithms
// (Al-Khalifa, Jagadish, Koudas, Patel, Srivastava, Wu — ICDE 2002), the
// access methods the paper's optimizer plans over (Sec. 2.2.1).
//
// Both algorithms merge two inputs sorted by document order, maintaining an
// in-memory stack of nested open ancestors:
//   * Stack-Tree-Desc emits pairs as each descendant arrives → output
//     ordered by the DESCENDANT.
//   * Stack-Tree-Anc holds pairs until the bottom stack entry pops and
//     releases them then → output ordered by the ANCESTOR. The paper's
//     self/inherit lists expand, at the bottom's pop, into a pre-order walk
//     of the nested entries: ancestor document order. So the merge keeps
//     the bottom entry's pairs in one vector in arrival order and releases
//     them with one stable counting sort on the ancestor group, O(1) per
//     pair however deep the stack, where copying the lists into the
//     parent's inherit list costs once per level.
//
// This implementation is tuple-generalized the way Timber generalizes
// element joins: inputs are tuple sets sorted by their join column; runs of
// tuples sharing the same join element form groups, the stack algorithm
// runs on distinct elements, and each matched element pair emits the cross
// product of its two row groups.
//
// There is one merge, StackTreeMerge, and it is resumable: it reads two
// windows of input rows, stops whenever it needs more rows of either input
// or the output batch is full (even inside one group cross product), and
// picks up exactly where it stopped. StackTreeJoin runs it once over two
// whole inputs; the streaming join operators (exec/operator.h) run it over
// windows they refill batch by batch. Group detection, the parent-child
// level filter over the stack, and cross-product expansion are column
// sweeps through exec/vector_kernels.h and ColumnBatch::AppendCrossRuns:
// emission plans up to 1024 runs (one ancestor row × a contiguous
// descendant run) and then writes each output column once.
//
// Rows no open ancestor can match cost no stack work: an ancestor that
// closes before the current descendant is skipped as dead (no push, no
// pop), and while the stack is empty the descendants before the next
// ancestor's start are skipped with one binary search.

#ifndef SJOS_EXEC_STACK_TREE_H_
#define SJOS_EXEC_STACK_TREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "query/pattern.h"
#include "storage/differential_index.h"
#include "xml/document.h"

namespace sjos {

class QueryGovernor;

/// Counters a join run reports (consumed by executor stats and tests).
struct JoinStats {
  uint64_t element_pairs = 0;  // matched (ancestor, descendant) elements
  uint64_t output_rows = 0;    // tuples emitted (after group expansion)
  // Pushes and depth count live ancestors only: one closing before the
  // descendant that follows it is skipped without a push.
  uint64_t stack_pushes = 0;
  uint64_t max_stack_depth = 0;
};

/// The resumable Stack-Tree merge over two windows of input rows.
///
/// Each window is a ColumnBatch owned by the caller, sorted by its join
/// column and appended to only at its end. The merge cuts a run of rows
/// sharing one join element off the front of a window as a group once the
/// run is known to be complete: a different element follows it, or the
/// input has ended. A window's last run is therefore held back until the
/// next batch or end-of-stream arrives.
///
/// A window row stays live while a stack entry or a buffered pair refers
/// to it (or it has not been cut or skipped yet); Compact drops the others.
class StackTreeMerge {
 public:
  /// Why Run stopped.
  enum class Wait {
    kAncestor,    // needs more ancestor rows (append them, then Run again)
    kDescendant,  // needs more descendant rows
    kOutput,      // `out` reached the row cap
    kDone,        // both inputs merged and every row emitted
  };

  /// `anc`/`desc` are the windows, joined on columns `anc_slot` and
  /// `desc_slot`; both must outlive the merge. `output_by_ancestor`
  /// selects Stack-Tree-Anc over Stack-Tree-Desc. `max_output_rows`
  /// (0 = unlimited) caps the rows emitted over the whole merge.
  /// `governor`, when non-null, is polled for the deadline every 64
  /// descendant groups.
  StackTreeMerge(DocView view, const ColumnBatch* anc, size_t anc_slot,
                 const ColumnBatch* desc, size_t desc_slot, Axis axis,
                 bool output_by_ancestor, uint64_t max_output_rows,
                 QueryGovernor* governor);

  /// Merges as far as the windows allow, appending joined rows (anc
  /// columns, then desc columns) to `out` until it holds `cap` rows.
  /// `anc_eos`/`desc_eos` say that no rows follow a window's last row.
  /// Adds to `stats` (may be null). Fails with OutOfRange once the row
  /// budget is exceeded, after emitting exactly the rows that fit.
  Result<Wait> Run(bool anc_eos, bool desc_eos, size_t cap, ColumnBatch* out,
                   JoinStats* stats);

  /// Drops the rows of `window` (one of the two windows) that nothing
  /// refers to, once they outnumber its live rows, and renumbers the
  /// groups the stack and the buffered pairs refer to. Call it only after
  /// Run returned kAncestor or kDescendant: no rows are then due.
  void Compact(ColumnBatch* window);

  /// Matched pairs held for later emission: the Anc variant's pairs under
  /// the bottom stack entry plus any pairs whose rows are not yet emitted.
  uint64_t buffered_pairs() const { return buffered_pairs_; }
  static constexpr uint64_t kPairBytes = 8;

 private:
  /// A run of window rows sharing one join element. `refs` counts the
  /// stack entry, the current-descendant mark, and the Anc variant's
  /// buffered pairs that refer to it; its rows are dead once it reaches 0.
  struct Group {
    NodeId elem;
    uint32_t begin;
    uint32_t end;  // exclusive
    uint32_t refs;
  };
  /// A matched (ancestor group, descendant group) element pair.
  struct GroupPair {
    uint32_t ag;
    uint32_t dg;
  };
  /// One input: its window, the groups cut from it so far, the first row
  /// not yet cut or skipped, and how many rows nothing refers to.
  struct Side {
    const ColumnBatch* rows;
    size_t slot;
    std::vector<Group> groups;
    size_t next_row = 0;
    size_t dead_rows = 0;
  };
  /// Cuts rows [next_row, end) of `side`, all holding `elem`, as a group.
  static uint32_t Cut(Side* side, NodeId elem, size_t end);
  void Unref(Side* side, uint32_t group);
  void Push(uint32_t ag, NodeId end, JoinStats* stats);
  void PopEntry();
  /// Moves `held_` to `ready_`, stably ordered by ancestor group, once the
  /// bottom entry (group `bottom_ag`) pops.
  void Release(uint32_t bottom_ag);
  void Match(uint32_t dg, JoinStats* stats);
  /// Emits the ready pairs into `out` up to `cap` rows; sets `*drained`
  /// once none are left.
  Status Emit(size_t cap, ColumnBatch* out, JoinStats* stats, bool* drained);

  DocView view_;
  Axis axis_;
  bool by_ancestor_;
  uint64_t max_output_rows_;
  QueryGovernor* governor_;
  Side anc_, desc_;

  // The stack of open ancestor groups, struct-of-arrays: the retirement
  // scans read the end column, the parent-child filter sweeps the level
  // column.
  std::vector<uint32_t> stack_ag_;
  std::vector<NodeId> stack_end_;
  std::vector<uint16_t> stack_level_;
  std::vector<uint32_t> sel_;  // match selection over stack entries
  // The Anc variant's pairs under the current bottom entry, in arrival
  // order, and the counting sort's bucket starts.
  std::vector<GroupPair> held_;
  std::vector<uint32_t> bucket_;

  bool have_dg_ = false;  // a descendant group is cut but not yet matched
  uint32_t cur_dg_ = 0;
  uint64_t desc_groups_cut_ = 0;

  // Emission cursor: pairs due for output, in output order, and the
  // position inside the current pair's cross product; `runs_` stages one
  // emission pass.
  std::vector<GroupPair> ready_;
  std::vector<ColumnBatch::CrossRun> runs_;
  size_t ready_pos_ = 0;
  size_t emit_ar_ = 0, emit_dr_ = 0;
  uint64_t emitted_rows_ = 0;
  uint64_t buffered_pairs_ = 0;
};

/// Joins `anc` (sorted by column `anc_slot`) with `desc` (sorted by column
/// `desc_slot`) under the structural predicate `axis`
/// (ancestor-descendant or parent-child): one StackTreeMerge run over the
/// two whole inputs.
///
/// `output_by_ancestor` selects the algorithm: true = Stack-Tree-Anc
/// (output ordered by the ancestor column), false = Stack-Tree-Desc
/// (ordered by the descendant column).
///
/// The output schema is anc.slots() followed by desc.slots(). Fails if an
/// input is not sorted by its join column or the schemas overlap.
///
/// `max_output_rows` (0 = unlimited) aborts the join with OutOfRange once
/// the output would exceed the budget — the safety valve that lets benches
/// run deliberately terrible plans on huge documents without exhausting
/// memory.
///
/// `governor`, when non-null, is polled for the query deadline every 64
/// descendant groups; a breach aborts the join with DeadlineExceeded.
Result<ColumnBatch> StackTreeJoin(DocView view, const ColumnBatch& anc,
                                  size_t anc_slot, const ColumnBatch& desc,
                                  size_t desc_slot, Axis axis,
                                  bool output_by_ancestor,
                                  JoinStats* stats = nullptr,
                                  uint64_t max_output_rows = 0,
                                  QueryGovernor* governor = nullptr);

}  // namespace sjos

#endif  // SJOS_EXEC_STACK_TREE_H_
