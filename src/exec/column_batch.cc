#include "exec/column_batch.h"

#include <algorithm>
#include <numeric>

#include "exec/vector_kernels.h"

namespace sjos {

ColumnBatch::ColumnBatch(std::vector<PatternNodeId> slots)
    : slots_(std::move(slots)), cols_(slots_.size()) {}

int ColumnBatch::SlotOf(PatternNodeId node) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == node) return static_cast<int>(i);
  }
  return -1;
}

void ColumnBatch::SetRows(size_t rows) {
  for (const auto& col : cols_) {
    SJOS_CHECK(col.size() == rows, "SetRows column length mismatch");
  }
  rows_ = rows;
}

void ColumnBatch::AppendRow(const NodeId* row) {
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(row[c]);
  ++rows_;
}

void ColumnBatch::AppendRange(const ColumnBatch& other, size_t begin,
                              size_t n) {
  SJOS_CHECK(other.arity() == arity(), "AppendRange arity mismatch");
  for (size_t c = 0; c < cols_.size(); ++c) {
    const auto& src = other.cols_[c];
    cols_[c].insert(cols_[c].end(), src.begin() + static_cast<long>(begin),
                    src.begin() + static_cast<long>(begin + n));
  }
  rows_ += n;
}

void ColumnBatch::AppendBatch(const ColumnBatch& other) {
  AppendRange(other, 0, other.size());
}

void ColumnBatch::AppendCross(const ColumnBatch& left, size_t left_row,
                              const ColumnBatch& right, size_t right_begin,
                              size_t n) {
  SJOS_CHECK(left.arity() + right.arity() == arity(),
             "AppendCross arity mismatch");
  for (size_t c = 0; c < left.arity(); ++c) {
    cols_[c].insert(cols_[c].end(), n, left.cols_[c][left_row]);
  }
  for (size_t c = 0; c < right.arity(); ++c) {
    const auto& src = right.cols_[c];
    cols_[left.arity() + c].insert(
        cols_[left.arity() + c].end(),
        src.begin() + static_cast<long>(right_begin),
        src.begin() + static_cast<long>(right_begin + n));
  }
  rows_ += n;
}

void ColumnBatch::AppendGather(const ColumnBatch& other, const uint32_t* sel,
                               size_t sel_n) {
  SJOS_CHECK(other.arity() == arity(), "AppendGather arity mismatch");
  for (size_t c = 0; c < cols_.size(); ++c) {
    const size_t old = cols_[c].size();
    cols_[c].resize(old + sel_n);
    kernels::GatherU32(other.cols_[c].data(), sel, sel_n,
                       cols_[c].data() + old);
  }
  rows_ += sel_n;
}

void ColumnBatch::Clear() {
  for (auto& col : cols_) col.clear();
  rows_ = 0;
}

void ColumnBatch::Reserve(size_t rows) {
  for (auto& col : cols_) col.reserve(rows);
}

void ColumnBatch::SortBySlot(size_t slot) {
  const size_t n = size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const NodeId* key = cols_[slot].data();
  std::stable_sort(order.begin(), order.end(),
                   [key](uint32_t x, uint32_t y) { return key[x] < key[y]; });
  std::vector<NodeId> scratch(n);
  for (auto& col : cols_) {
    kernels::GatherU32(col.data(), order.data(), n, scratch.data());
    col.swap(scratch);
    scratch.resize(n);
  }
  ordered_by_slot_ = static_cast<int>(slot);
}

bool ColumnBatch::IsSortedBySlot(size_t slot) const {
  return kernels::IsNonDecreasing(cols_[slot].data(), size());
}

TupleSet ColumnBatch::ToRows() const {
  TupleSet out(slots_);
  out.Reserve(size());
  std::vector<NodeId> row(arity());
  for (size_t r = 0; r < size(); ++r) {
    for (size_t c = 0; c < arity(); ++c) row[c] = cols_[c][r];
    out.AppendRow(row.data());
  }
  out.set_ordered_by_slot(ordered_by_slot_);
  return out;
}

ColumnBatch ColumnBatch::FromRows(const TupleSet& rows) {
  ColumnBatch out(rows.slots());
  const size_t n = rows.size();
  const size_t a = rows.arity();
  out.Reserve(n);
  for (size_t c = 0; c < a; ++c) {
    auto& col = out.cols_[c];
    col.resize(n);
    for (size_t r = 0; r < n; ++r) col[r] = rows.At(r, c);
  }
  out.rows_ = n;
  out.ordered_by_slot_ = rows.ordered_by_slot();
  return out;
}

}  // namespace sjos
