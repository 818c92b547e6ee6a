// Struct-of-arrays execution batches, the executor's one row type. A
// ColumnBatch binds one NodeId per (row, slot) and stores each slot as its
// own contiguous column, so the hot kernels (tag/level filtering, sort
// permutation, group detection) run as straight-line sweeps over dense
// uint32 arrays instead of strided row-major walks. Operators, the
// Stack-Tree merge and the streaming sink all trade in ColumnBatch;
// ToRows() is the one conversion, to the TupleSet a finished result is.

#ifndef SJOS_EXEC_COLUMN_BATCH_H_
#define SJOS_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/tuple_set.h"
#include "query/pattern.h"
#include "xml/node.h"

namespace sjos {

/// A batch of pattern-node bindings, one contiguous column per slot.
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// Creates an empty batch with the given schema.
  explicit ColumnBatch(std::vector<PatternNodeId> slots);

  size_t arity() const { return slots_.size(); }
  size_t size() const { return arity() == 0 ? 0 : rows_; }
  bool empty() const { return size() == 0; }

  const std::vector<PatternNodeId>& slots() const { return slots_; }

  /// Index of `node` in the schema, or -1.
  int SlotOf(PatternNodeId node) const;

  NodeId At(size_t row, size_t col) const { return cols_[col][row]; }

  /// Read pointer to column `col` (size() consecutive NodeIds).
  const NodeId* Col(size_t col) const { return cols_[col].data(); }

  /// Mutable column for bulk kernel writes. Resize every column to the
  /// same row count (or write through resized spans) and then commit with
  /// SetRows; prefer the higher-level appenders elsewhere.
  std::vector<NodeId>& Raw(size_t col) { return cols_[col]; }

  /// Commits the row count after direct writes through Raw(); every column
  /// must hold exactly `rows` values.
  void SetRows(size_t rows);

  /// Appends one row; `row` must have arity() entries.
  void AppendRow(const NodeId* row);

  /// Appends rows [begin, begin+n) of `other`, which must have the same
  /// arity. Straight per-column memcpy.
  void AppendRange(const ColumnBatch& other, size_t begin, size_t n);

  /// Appends every row of `other`, which must have the same arity (checked).
  void AppendBatch(const ColumnBatch& other);

  /// One ancestor row times a contiguous run of descendant rows.
  struct CrossRun {
    uint32_t left_row;
    uint32_t right_begin;
    uint32_t n;
  };

  /// Appends the cross products runs[0..nruns), in order: for each run,
  /// each left column contributes `n` copies of its value at `left_row`,
  /// each right column a straight copy of rows [right_begin, right_begin+n).
  /// Each output column is written in one pass. The join's expansion kernel.
  void AppendCrossRuns(const ColumnBatch& left, const ColumnBatch& right,
                       const CrossRun* runs, size_t nruns);

  /// Appends the rows of `other` selected by sel[0..sel_n), in sel order.
  void AppendGather(const ColumnBatch& other, const uint32_t* sel,
                    size_t sel_n);

  /// Drops all rows, keeping the schema and ordering property.
  void Clear();

  void Reserve(size_t rows);

  /// Which slot the rows are sorted by (document order of that column);
  /// -1 when unknown/unsorted.
  int ordered_by_slot() const { return ordered_by_slot_; }
  void set_ordered_by_slot(int slot) { ordered_by_slot_ = slot; }

  /// The pattern node the rows are ordered by, or kNoPatternNode.
  PatternNodeId OrderedByNode() const {
    return ordered_by_slot_ < 0 ? kNoPatternNode
                                : slots_[static_cast<size_t>(ordered_by_slot_)];
  }

  /// Stable-sorts rows by the given slot's document order and records the
  /// new ordering property. One permutation sort on the key column, then a
  /// gather per payload column.
  void SortBySlot(size_t slot);

  /// True if rows are non-decreasing in `slot` (kernels::IsNonDecreasing).
  bool IsSortedBySlot(size_t slot) const;

  /// The rows as a row-major TupleSet (same slots, same row order).
  TupleSet ToRows() const;

 private:
  std::vector<PatternNodeId> slots_;
  std::vector<std::vector<NodeId>> cols_;
  size_t rows_ = 0;
  int ordered_by_slot_ = -1;
};

}  // namespace sjos

#endif  // SJOS_EXEC_COLUMN_BATCH_H_
