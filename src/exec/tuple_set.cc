#include "exec/tuple_set.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

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

TupleSet::Order TupleSet::CanonicalOrder() const {
  const size_t n = size();
  const size_t a = arity();
  SJOS_CHECK(n <= UINT32_MAX, "CanonicalOrder: too many rows");
  Order order;
  order.columns.resize(a);
  std::iota(order.columns.begin(), order.columns.end(), 0);
  std::sort(order.columns.begin(), order.columns.end(),
            [&](size_t x, size_t y) { return slots_[x] < slots_[y]; });
  order.rows.resize(n);
  if (n == 0) return order;
  const size_t* cols = order.columns.data();

  // Each row gets one 64-bit key: its first two canonical ids, each in
  // as many bits as the column's largest id needs, above the row index
  // (only the first id when both do not fit). Keys are unique, so sorting
  // them sorts the rows by those ids and keeps ties in stored order.
  const size_t lead = std::min<size_t>(a, 2);
  NodeId max_id[2] = {0, 0};
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < lead; ++c) {
      max_id[c] = std::max(max_id[c], Row(r)[cols[c]]);
    }
  }
  const int row_bits = std::bit_width(uint64_t{n - 1});
  int key_bits = row_bits + std::bit_width(max_id[0]);
  int second_bits = std::bit_width(max_id[1]);
  const size_t keyed = lead == 2 && key_bits + second_bits <= 64 ? 2 : 1;
  if (keyed == 2) key_bits += second_bits;
  std::vector<uint64_t> keys(n);
  for (size_t r = 0; r < n; ++r) {
    const NodeId* row = Row(r);
    const uint64_t id =
        keyed == 2 ? uint64_t{row[cols[0]]} << second_bits | row[cols[1]]
                   : row[cols[0]];
    keys[r] = id << row_bits | r;
  }

  // A stable LSD radix sort of the keys, kDigitBits a pass from row_bits
  // up (the bits below hold row indices, already in order). A pass whose
  // digit every key shares is skipped.
  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<uint32_t> count(size_t{1} << kDigitBits);
  std::vector<uint64_t> scratch;
  for (int shift = row_bits; shift < key_bits; shift += kDigitBits) {
    std::fill(count.begin(), count.end(), 0);
    for (const uint64_t key : keys) ++count[key >> shift & kDigitMask];
    if (count[keys[0] >> shift & kDigitMask] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : count) sum += std::exchange(c, sum);
    scratch.resize(n);
    for (const uint64_t key : keys) {
      scratch[count[key >> shift & kDigitMask]++] = key;
    }
    keys.swap(scratch);
  }
  const uint64_t row_mask = (uint64_t{1} << row_bits) - 1;
  for (size_t i = 0; i < n; ++i) {
    order.rows[i] = static_cast<uint32_t>(keys[i] & row_mask);
  }
  if (keyed == a) return order;

  // Rows that tie on the keyed columns are sorted by the rest. Engine
  // results mostly store those in canonical order already, so a run of
  // ties is sorted only when a check finds it out of order.
  const auto less = [&](uint32_t x, uint32_t y) {
    const NodeId* rx = Row(x);
    const NodeId* ry = Row(y);
    for (size_t c = keyed; c < a; ++c) {
      if (rx[cols[c]] != ry[cols[c]]) return rx[cols[c]] < ry[cols[c]];
    }
    return false;
  };
  uint32_t* rows = order.rows.data();
  for (size_t begin = 0, end = 1; begin < n; begin = end++) {
    const uint64_t tie = keys[begin] >> row_bits;
    bool sorted = true;
    for (; end < n && keys[end] >> row_bits == tie; ++end) {
      sorted = sorted && !less(rows[end], rows[end - 1]);
    }
    if (!sorted) std::stable_sort(rows + begin, rows + end, less);
  }
  return order;
}

std::vector<std::vector<NodeId>> TupleSet::Canonical() const {
  const Order order = CanonicalOrder();
  std::vector<std::vector<NodeId>> rows(order.rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const NodeId* row = Row(order.rows[i]);
    rows[i].reserve(arity());
    for (size_t c : order.columns) rows[i].push_back(row[c]);
  }
  return rows;
}

}  // namespace sjos
