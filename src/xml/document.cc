#include "xml/document.h"

#include <algorithm>

#include "common/str_util.h"

namespace sjos {

std::string_view Document::TextOf(NodeId key) const {
  uint32_t idx = text_index_[key >> key_shift_];
  if (idx == 0) return {};
  return texts_[idx - 1];
}

std::vector<NodeId> Document::ChildrenOf(NodeId key) const {
  std::vector<NodeId> out;
  NodeId slot = key >> key_shift_;
  NodeId child = slot + 1;
  const NodeId end = ends_[slot];
  while (child <= end && child < NumNodes()) {
    out.push_back(KeyOfSlot(child));
    child = ends_[child] + 1;
  }
  return out;
}

uint16_t Document::MaxLevel() const {
  uint16_t mx = 0;
  for (uint16_t lv : levels_) mx = std::max(mx, lv);
  return mx;
}

uint32_t Document::ChooseSpacingShift(size_t n) {
  uint32_t shift = 6;
  const uint64_t nodes = std::max<uint64_t>(n, 1);
  while (shift > 0 && (nodes << shift) >= (uint64_t{1} << 31)) --shift;
  return shift;
}

Status Document::Respace(uint32_t shift) {
  const size_t n = NumNodes();
  if (shift > 16) return Status::InvalidArgument("spacing shift too large");
  if (shift > 0 && (static_cast<uint64_t>(n) << shift) > kInvalidNode) {
    return Status::InvalidArgument("document too large for spacing shift");
  }
  key_shift_ = shift;
  if (shift == 0) {
    end_keys_.clear();
    return Status::OK();
  }
  // Stagger close events inside the gap of their closing slot: a chain of
  // c nodes whose subtrees all end at slot e is popped deepest-first, the
  // j-th pop (j = 0..c-1) getting end key (e << shift) + (j+1)*s/(c+1).
  // Deeper nodes close earlier, so nesting holds; keys are strictly
  // increasing whenever c < s (and saturate harmlessly otherwise).
  const uint64_t s = uint64_t{1} << shift;
  end_keys_.assign(n, 0);
  std::vector<NodeId> open;
  for (NodeId e = 0; e < n; ++e) {
    open.push_back(e);
    if (ends_[open.back()] != e) continue;
    NodeId chain = 0;
    while (chain < open.size() && ends_[open[open.size() - 1 - chain]] == e) {
      ++chain;
    }
    const uint64_t base = static_cast<uint64_t>(e) << shift;
    for (NodeId j = 0; j < chain; ++j) {
      uint64_t offset = static_cast<uint64_t>(j + 1) * s / (chain + 1);
      end_keys_[open.back()] = static_cast<NodeId>(base + offset);
      open.pop_back();
    }
  }
  return Status::OK();
}

Status Document::Validate() const {
  const size_t n = NumNodes();
  if (n == 0) return Status::OK();
  if (ends_.size() != n || levels_.size() != n || parents_.size() != n ||
      text_index_.size() != n) {
    return Status::Internal("document column sizes disagree");
  }
  if (levels_[0] != 0 || parents_[0] != kInvalidNode) {
    return Status::Internal("root must have level 0 and no parent");
  }
  if (ends_[0] != n - 1) {
    return Status::Internal("root interval must span the whole document");
  }
  for (NodeId id = 0; id < n; ++id) {
    if (ends_[id] < id || ends_[id] >= n) {
      return Status::Internal(
          StrFormat("node %u has bad end %u", id, ends_[id]));
    }
    if (id > 0) {
      NodeId p = parents_[id];
      if (p == kInvalidNode || p >= id) {
        return Status::Internal(StrFormat("node %u has bad parent", id));
      }
      if (levels_[id] != levels_[p] + 1) {
        return Status::Internal(
            StrFormat("node %u level != parent level + 1", id));
      }
      if (!(p < id && id <= ends_[p])) {
        return Status::Internal(
            StrFormat("node %u not inside parent interval", id));
      }
      // Sibling/parent nesting: the node's interval must be inside the
      // parent's interval.
      if (ends_[id] > ends_[p]) {
        return Status::Internal(
            StrFormat("node %u escapes parent interval", id));
      }
    }
    if (tags_[id] >= dict_.size()) {
      return Status::Internal(StrFormat("node %u has unknown tag", id));
    }
  }
  if (key_shift_ != 0) {
    if (end_keys_.size() != n) {
      return Status::Internal("spaced document missing end keys");
    }
    if ((static_cast<uint64_t>(n) << key_shift_) > kInvalidNode) {
      return Status::Internal("key domain overflows NodeId");
    }
    const uint64_t s = uint64_t{1} << key_shift_;
    for (NodeId id = 0; id < n; ++id) {
      const uint64_t lo = static_cast<uint64_t>(ends_[id]) << key_shift_;
      if (end_keys_[id] < lo || end_keys_[id] >= lo + s) {
        return Status::Internal(
            StrFormat("node %u end key outside closing gap", id));
      }
      if (end_keys_[id] < KeyOfSlot(id)) {
        return Status::Internal(StrFormat("node %u end key before start", id));
      }
      if (id > 0 && end_keys_[id] > end_keys_[parents_[id]]) {
        return Status::Internal(
            StrFormat("node %u end key escapes parent", id));
      }
    }
  }
  return Status::OK();
}

}  // namespace sjos
