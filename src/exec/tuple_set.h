// Row-major query results. A TupleSet is a finished result: each row
// assigns one document node to every pattern node in the set's schema
// ("slots"), stored row-major in one flat vector. It only collects and
// reads rows. The executor trades in columnar ColumnBatch batches
// (exec/column_batch.h) and converts to a TupleSet once, at the end of
// Executor::Execute; the TwigJoin oracle returns one too. CanonicalOrder()
// is the order the wire encoder writes, as a permutation of the stored rows.

#ifndef SJOS_EXEC_TUPLE_SET_H_
#define SJOS_EXEC_TUPLE_SET_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/pattern.h"
#include "xml/node.h"

namespace sjos {

/// A finished result: rows of pattern-node bindings.
class TupleSet {
 public:
  TupleSet() = default;

  /// Creates an empty set with the given schema.
  explicit TupleSet(std::vector<PatternNodeId> slots);

  size_t arity() const { return slots_.size(); }
  size_t size() const { return arity() == 0 ? 0 : data_.size() / arity(); }
  bool empty() const { return data_.empty(); }

  const std::vector<PatternNodeId>& slots() const { return slots_; }

  /// Index of `node` in the schema, or -1.
  int SlotOf(PatternNodeId node) const;

  NodeId At(size_t row, size_t slot) const {
    return data_[row * arity() + slot];
  }

  /// Pointer to the start of row `row` (arity() consecutive NodeIds).
  const NodeId* Row(size_t row) const { return &data_[row * arity()]; }

  /// Appends one row; `row` must have arity() entries.
  void AppendRow(const NodeId* row);

  void Reserve(size_t rows) { data_.reserve(rows * arity()); }

  /// The canonical order as a permutation of the stored result: canonical
  /// row i, column c is At(rows[i], columns[c]).
  struct Order {
    /// Slot indices by ascending pattern-node id.
    std::vector<size_t> columns;
    /// Row indices, rows compared lexicographically over `columns`
    /// (stable, so duplicates keep their stored order).
    std::vector<uint32_t> rows;
  };

  /// The canonical order. The wire encoder writes results in this order.
  Order CanonicalOrder() const;

  /// The rows in canonical order, one vector per row, for result
  /// comparison in tests.
  std::vector<std::vector<NodeId>> Canonical() const;

 private:
  std::vector<PatternNodeId> slots_;
  std::vector<NodeId> data_;
};

}  // namespace sjos

#endif  // SJOS_EXEC_TUPLE_SET_H_
