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

void ColumnBatch::AppendCrossRuns(const ColumnBatch& left,
                                  const ColumnBatch& right,
                                  const CrossRun* runs, size_t nruns) {
  SJOS_CHECK(left.arity() + right.arity() == arity(),
             "AppendCrossRuns arity mismatch");
  size_t n = 0;
  for (size_t r = 0; r < nruns; ++r) n += runs[r].n;
  for (size_t c = 0; c < arity(); ++c) {
    cols_[c].resize(rows_ + n);
    NodeId* dst = cols_[c].data() + rows_;
    if (c < left.arity()) {
      const NodeId* src = left.Col(c);
      for (size_t r = 0; r < nruns; ++r) {
        dst = std::fill_n(dst, runs[r].n, src[runs[r].left_row]);
      }
    } else {
      const NodeId* src = right.Col(c - left.arity());
      for (size_t r = 0; r < nruns; ++r) {
        dst = std::copy_n(src + runs[r].right_begin, runs[r].n, dst);
      }
    }
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
  return out;
}

}  // namespace sjos
