#include "core/opt_status.h"

#include <bit>

#include "common/str_util.h"

namespace sjos {

OptStatus OptStatus::Start(const Pattern& pattern) {
  SJOS_CHECK(pattern.NumNodes() <= kMaxPatternNodes,
             "pattern too large for status-based optimization");
  // Loop to the checked local: GCC cannot bound the uint8_t member by the
  // check and warns that the loop may write past the arrays.
  const size_t n = pattern.NumNodes();
  OptStatus s;
  s.n_ = static_cast<uint8_t>(n);
  for (size_t i = 0; i < n; ++i) {
    s.rep_[i] = static_cast<uint8_t>(i);
    s.order_[i] = static_cast<uint8_t>(i);
  }
  return s;
}

NodeMask OptStatus::ClusterMaskOf(PatternNodeId node) const {
  const uint8_t rep = rep_[static_cast<size_t>(node)];
  NodeMask mask = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (rep_[i] == rep) mask |= MaskOf(static_cast<PatternNodeId>(i));
  }
  return mask;
}

void OptStatus::AllClusterMasks(
    std::array<NodeMask, kMaxPatternNodes>* masks) const {
  std::array<NodeMask, kMaxPatternNodes> by_rep{};
  for (size_t i = 0; i < n_; ++i) {
    by_rep[rep_[i]] |= MaskOf(static_cast<PatternNodeId>(i));
  }
  for (size_t i = 0; i < n_; ++i) {
    (*masks)[i] = by_rep[rep_[i]];
  }
}

int OptStatus::Level() const {
  return std::popcount(joined_edges_);
}

OptStatus OptStatus::AfterJoin(PatternNodeId anc, PatternNodeId desc,
                               size_t edge_index,
                               PatternNodeId new_order) const {
  OptStatus next = *this;
  const uint8_t rep_a = rep_[static_cast<size_t>(anc)];
  const uint8_t rep_d = rep_[static_cast<size_t>(desc)];
  SJOS_CHECK(rep_a != rep_d, "AfterJoin endpoints already in one cluster");
  const uint8_t merged = rep_a < rep_d ? rep_a : rep_d;
  for (size_t i = 0; i < n_; ++i) {
    if (next.rep_[i] == rep_a || next.rep_[i] == rep_d) {
      next.rep_[i] = merged;
      next.order_[i] = static_cast<uint8_t>(new_order);
    }
  }
  next.joined_edges_ |= uint64_t{1} << edge_index;
  return next;
}

StatusKey OptStatus::Key() const {
  StatusKey key;
  for (size_t i = 0; i < n_; ++i) {
    key.rep_bits |= static_cast<uint64_t>(rep_[i]) << (4 * i);
    key.order_bits |= static_cast<uint64_t>(order_[i]) << (4 * i);
  }
  return key;
}

std::string OptStatus::ToString() const {
  std::string out;
  for (size_t rep = 0; rep < n_; ++rep) {
    // Emit each cluster once, keyed by its representative.
    if (rep_[rep] != rep) continue;
    out += '{';
    bool first = true;
    for (size_t i = 0; i < n_; ++i) {
      if (rep_[i] != rep) continue;
      if (!first) out += ',';
      out += StrFormat("%zu", i);
      first = false;
    }
    out += StrFormat("|ord %u}", order_[rep]);
  }
  return out;
}

}  // namespace sjos
