#include "exec/tuple_set.h"

#include <algorithm>
#include <numeric>

namespace sjos {

TupleSet::TupleSet(std::vector<PatternNodeId> slots)
    : slots_(std::move(slots)) {}

int TupleSet::SlotOf(PatternNodeId node) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == node) return static_cast<int>(i);
  }
  return -1;
}

void TupleSet::AppendRow(const NodeId* row) {
  data_.insert(data_.end(), row, row + arity());
}

void TupleSet::AppendConcat(const NodeId* left, size_t left_n,
                            const NodeId* right, size_t right_n) {
  data_.insert(data_.end(), left, left + left_n);
  data_.insert(data_.end(), right, right + right_n);
}

void TupleSet::AppendSet(const TupleSet& other) {
  SJOS_CHECK(other.arity() == arity(), "AppendSet arity mismatch");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
}

void TupleSet::SortBySlot(size_t slot) {
  const size_t n = size();
  const size_t a = arity();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return data_[x * a + slot] < data_[y * a + slot];
  });
  std::vector<NodeId> sorted;
  sorted.reserve(data_.size());
  for (uint32_t row : order) {
    const NodeId* src = &data_[row * a];
    sorted.insert(sorted.end(), src, src + a);
  }
  data_ = std::move(sorted);
  ordered_by_slot_ = static_cast<int>(slot);
}

bool TupleSet::IsSortedBySlot(size_t slot) const {
  const size_t n = size();
  const size_t a = arity();
  for (size_t i = 1; i < n; ++i) {
    if (data_[(i - 1) * a + slot] > data_[i * a + slot]) return false;
  }
  return true;
}

std::vector<NodeId> TupleSet::CanonicalRows() const {
  const size_t n = size();
  const size_t a = arity();
  SJOS_CHECK(n <= UINT32_MAX, "CanonicalRows: too many rows");
  // Permute the columns once into ascending pattern-node order, so rows
  // compare with one forward sweep.
  std::vector<size_t> col_order(a);
  std::iota(col_order.begin(), col_order.end(), 0);
  std::sort(col_order.begin(), col_order.end(),
            [&](size_t x, size_t y) { return slots_[x] < slots_[y]; });
  std::vector<NodeId> permuted(data_.size());
  for (size_t r = 0; r < n; ++r) {
    const NodeId* src = &data_[r * a];
    NodeId* dst = &permuted[r * a];
    for (size_t c = 0; c < a; ++c) dst[c] = src[col_order[c]];
  }
  // Sort row indices instead of moving whole rows. Each index carries its
  // row's first two ids packed into one key, so rows that differ there
  // compare without reading the buffer. Engine results arrive mostly in
  // canonical order already; a merge sort gains from that (about 1.5x on
  // the Pers results) and std::sort does not.
  struct Entry {
    uint64_t lead;
    uint32_t row;
  };
  std::vector<Entry> order(n);
  for (size_t r = 0; r < n; ++r) {
    const NodeId* row = &permuted[r * a];
    order[r].lead = uint64_t{row[0]} << 32 | (a > 1 ? row[1] : 0);
    order[r].row = static_cast<uint32_t>(r);
  }
  const auto less = [&](const Entry& x, const Entry& y) {
    if (x.lead != y.lead) return x.lead < y.lead;
    const NodeId* rx = &permuted[size_t{x.row} * a];
    const NodeId* ry = &permuted[size_t{y.row} * a];
    for (size_t c = 2; c < a; ++c) {
      if (rx[c] != ry[c]) return rx[c] < ry[c];
    }
    return false;
  };
  std::stable_sort(order.begin(), order.end(), less);
  std::vector<NodeId> sorted(data_.size());
  NodeId* dst = sorted.data();
  for (const Entry& e : order) {
    dst = std::copy_n(&permuted[size_t{e.row} * a], a, dst);
  }
  return sorted;
}

std::vector<std::vector<NodeId>> TupleSet::Canonical() const {
  const std::vector<NodeId> flat = CanonicalRows();
  const size_t a = arity();
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(size());
  for (size_t r = 0; r < size(); ++r) {
    rows.emplace_back(flat.begin() + r * a, flat.begin() + (r + 1) * a);
  }
  return rows;
}

}  // namespace sjos
