#include "storage/differential_index.h"

#include <algorithm>

#include "common/str_util.h"

namespace sjos {

DifferentialIndex::DifferentialIndex(const Document* doc) : doc_(doc) {}

const DifferentialIndex::InsertedNode* DifferentialIndex::Find(
    NodeId key) const {
  auto it = nodes_.find(key);
  return it == nodes_.end() ? nullptr : &it->second;
}

bool DifferentialIndex::IsLiveBaseKey(NodeId key) const {
  if (!doc_->IsBaseKey(key)) return false;
  NodeId slot = doc_->SlotOfKey(key);
  return slot < doc_->NumNodes() && !IsDeletedSlot(slot);
}

bool DifferentialIndex::IsLive(NodeId key) const {
  return IsLiveBaseKey(key) || nodes_.count(key) > 0;
}

NodeId DifferentialIndex::EndKeyOfLive(NodeId key) const {
  if (doc_->IsBaseKey(key)) return doc_->EndOf(key);
  const InsertedNode* n = Find(key);
  return n == nullptr ? key : n->end_key;
}

const std::vector<NodeId>* DifferentialIndex::Added(TagId tag) const {
  if (tag >= added_by_tag_.size() || added_by_tag_[tag].empty()) {
    return nullptr;
  }
  return &added_by_tag_[tag];
}

void DifferentialIndex::AddedInRange(TagId tag, NodeId lo, NodeId hi,
                                     std::vector<NodeId>* out) const {
  const std::vector<NodeId>* added = Added(tag);
  if (added == nullptr) return;
  auto first = std::upper_bound(added->begin(), added->end(), lo);
  auto last = std::upper_bound(first, added->end(), hi);
  out->insert(out->end(), first, last);
}

std::vector<NodeId> DifferentialIndex::MergedChildren(NodeId parent_key) const {
  std::vector<NodeId> base_kids;
  if (doc_->IsBaseKey(parent_key) &&
      doc_->SlotOfKey(parent_key) < doc_->NumNodes()) {
    base_kids = doc_->ChildrenOf(parent_key);
    if (deleted_count_ > 0) {
      base_kids.erase(std::remove_if(base_kids.begin(), base_kids.end(),
                                     [&](NodeId k) {
                                       return IsDeletedSlot(doc_->SlotOfKey(k));
                                     }),
                      base_kids.end());
    }
  }
  auto it = children_.find(parent_key);
  if (it == children_.end()) return base_kids;
  std::vector<NodeId> out;
  out.reserve(base_kids.size() + it->second.size());
  std::merge(base_kids.begin(), base_kids.end(), it->second.begin(),
             it->second.end(), std::back_inserter(out));
  return out;
}

Status DifferentialIndex::CheckInsert(NodeId parent_key,
                                       const Document& fragment) const {
  if (fragment.Empty()) {
    return Status::InvalidArgument("cannot insert an empty fragment");
  }
  if (fragment.Spaced()) {
    return Status::InvalidArgument("insert fragment must be dense");
  }
  if (!IsLive(parent_key)) {
    return Status::NotFound(
        StrFormat("insert parent %u does not name a live node", parent_key));
  }
  const uint16_t parent_level = doc_->IsBaseKey(parent_key)
                                    ? doc_->LevelOf(parent_key)
                                    : Find(parent_key)->level;
  if (static_cast<uint32_t>(parent_level) + 1 + fragment.MaxLevel() >=
      0xFFFF) {
    return Status::InvalidArgument("insert would exceed the level range");
  }
  return Status::OK();
}

Status DifferentialIndex::InsertSubtree(NodeId parent_key, size_t position,
                                        const Document& fragment,
                                        const std::vector<TagId>& tag_map,
                                        std::vector<InsertedNode>* added) {
  SJOS_RETURN_IF_ERROR(CheckInsert(parent_key, fragment));
  if (tag_map.size() < fragment.dict().size()) {
    return Status::Internal("fragment tag map incomplete");
  }
  uint16_t parent_level;
  TagId graft_parent_tag;
  if (doc_->IsBaseKey(parent_key)) {
    parent_level = doc_->LevelOf(parent_key);
    graft_parent_tag = doc_->TagOf(parent_key);
  } else {
    const InsertedNode* p = Find(parent_key);
    parent_level = p->level;
    graft_parent_tag = p->tag;
  }

  // Bracket the insertion point with the two structural events around it:
  // the previous sibling's close (or the parent's open) and the next
  // sibling's open (or the parent's close). The fragment's 2m open/close
  // events are laid out evenly inside that key gap, over its keys that are
  // NOT base-aligned: a base-aligned key in the gap may belong to a deleted
  // base node, and reads route every base-aligned key (IsBaseKey) to the
  // base document. Keys are placed in rank space: rank(v) counts the
  // non-aligned keys in [0, v] and unrank(t) is the t-th one.
  std::vector<NodeId> kids = MergedChildren(parent_key);
  const size_t pos = std::min(position, kids.size());
  const uint64_t lo = pos == 0 ? parent_key : EndKeyOfLive(kids[pos - 1]);
  const uint64_t hi =
      pos == kids.size() ? EndKeyOfLive(parent_key) : kids[pos];
  const uint64_t unit = uint64_t{1} << doc_->KeyShift();
  const auto rank = [unit](uint64_t v) { return v - v / unit; };
  const auto unrank = [unit](uint64_t t) {
    return (t - 1) / (unit - 1) * unit + (t - 1) % (unit - 1) + 1;
  };
  const uint64_t m = fragment.NumNodes();
  const uint64_t events = 2 * m;
  // Non-aligned keys in (lo, hi]; the strided picks stay below hi.
  const uint64_t free_keys = hi > lo ? rank(hi) - rank(lo) : 0;
  const uint64_t stride = free_keys / (events + 1);
  if (stride == 0) {
    return Status::ResourceExhausted(
        StrFormat("key gap under node %u exhausted; flush required",
                  parent_key));
  }

  // Stage the grafted nodes: fragment slots in pre-order are exactly the
  // open-event order; closes fire when the next slot leaves the subtree.
  std::vector<InsertedNode> staged;
  staged.reserve(m);
  std::vector<NodeId> open_stack;
  uint64_t event = 0;
  auto next_key = [&]() {
    return static_cast<NodeId>(unrank(rank(lo) + stride * ++event));
  };
  for (NodeId fs = 0; fs < m; ++fs) {
    while (!open_stack.empty() && fragment.EndSlotOf(open_stack.back()) < fs) {
      staged[open_stack.back()].end_key = next_key();
      open_stack.pop_back();
    }
    InsertedNode n;
    n.key = next_key();
    n.tag = tag_map[fragment.TagData()[fs]];
    n.level =
        static_cast<uint16_t>(parent_level + 1 + fragment.LevelData()[fs]);
    if (fs == 0) {
      n.parent_key = parent_key;
      n.parent_tag = graft_parent_tag;
    } else {
      const InsertedNode& p = staged[fragment.ParentOf(fs)];
      n.parent_key = p.key;
      n.parent_tag = p.tag;
    }
    n.text = std::string(fragment.TextOf(fs));
    staged.push_back(std::move(n));
    open_stack.push_back(fs);
  }
  while (!open_stack.empty()) {
    staged[open_stack.back()].end_key = next_key();
    open_stack.pop_back();
  }

  // Commit: overlay map, per-tag postings, child lists.
  for (const InsertedNode& n : staged) {
    auto inserted = nodes_.emplace(n.key, n);
    if (!inserted.second) {
      return Status::Internal(
          StrFormat("overlay key collision at %u", n.key));
    }
    if (n.tag >= added_by_tag_.size()) added_by_tag_.resize(n.tag + 1);
    std::vector<NodeId>& tagged = added_by_tag_[n.tag];
    tagged.insert(std::lower_bound(tagged.begin(), tagged.end(), n.key),
                  n.key);
    std::vector<NodeId>& siblings = children_[n.parent_key];
    siblings.insert(
        std::lower_bound(siblings.begin(), siblings.end(), n.key), n.key);
  }
  if (added != nullptr) {
    added->insert(added->end(), staged.begin(), staged.end());
  }
  return Status::OK();
}

void DifferentialIndex::EraseOverlayNode(NodeId key) {
  auto it = nodes_.find(key);
  if (it == nodes_.end()) return;
  const InsertedNode& n = it->second;
  if (n.tag < added_by_tag_.size()) {
    std::vector<NodeId>& tagged = added_by_tag_[n.tag];
    auto t = std::lower_bound(tagged.begin(), tagged.end(), key);
    if (t != tagged.end() && *t == key) tagged.erase(t);
  }
  auto kids = children_.find(n.parent_key);
  if (kids != children_.end()) {
    auto c = std::lower_bound(kids->second.begin(), kids->second.end(), key);
    if (c != kids->second.end() && *c == key) kids->second.erase(c);
    if (kids->second.empty()) children_.erase(kids);
  }
  children_.erase(key);
  nodes_.erase(it);
}

Status DifferentialIndex::DeleteSubtree(NodeId key,
                                        std::vector<InsertedNode>* removed) {
  NodeId end_key;
  if (doc_->IsBaseKey(key)) {
    const NodeId slot = doc_->SlotOfKey(key);
    if (slot >= doc_->NumNodes()) {
      return Status::NotFound(StrFormat("node %u out of range", key));
    }
    if (slot == 0) {
      return Status::InvalidArgument("cannot delete the document root");
    }
    if (IsDeletedSlot(slot)) {
      return Status::NotFound(StrFormat("node %u already deleted", key));
    }
    if (deleted_.empty()) deleted_.assign(doc_->NumNodes(), false);
    const NodeId end_slot = doc_->EndSlotOf(slot);
    for (NodeId s = slot; s <= end_slot; ++s) {
      if (deleted_[s]) continue;
      deleted_[s] = true;
      ++deleted_count_;
      if (removed != nullptr) {
        InsertedNode r;
        r.key = doc_->KeyOfSlot(s);
        r.end_key = doc_->EndOf(r.key);
        r.parent_key = doc_->ParentOf(r.key);
        r.tag = doc_->TagData()[s];
        r.parent_tag = doc_->TagOf(r.parent_key);
        r.level = doc_->LevelData()[s];
        r.text = std::string(doc_->TextOf(r.key));
        removed->push_back(std::move(r));
      }
    }
    end_key = doc_->EndOf(key);
    // Base-parented overlay child lists inside the deleted range die with
    // their parents.
    children_.erase(children_.lower_bound(key), children_.upper_bound(end_key));
  } else {
    auto it = nodes_.find(key);
    if (it == nodes_.end()) {
      return Status::NotFound(
          StrFormat("node %u does not name a live node", key));
    }
    end_key = it->second.end_key;
  }
  // Overlay nodes inside [key, end_key] are removed outright (an insert
  // under a deleted subtree would be unreachable).
  std::vector<NodeId> doomed;
  for (auto it = nodes_.lower_bound(key);
       it != nodes_.end() && it->first <= end_key; ++it) {
    doomed.push_back(it->first);
  }
  for (NodeId k : doomed) {
    if (removed != nullptr) removed->push_back(nodes_.find(k)->second);
    EraseOverlayNode(k);
  }
  return Status::OK();
}

std::vector<NodeId> MergedPostings(std::span<const NodeId> base,
                                   const DocView& view, TagId tag) {
  const DifferentialIndex* diff = view.diff();
  const Document& doc = view.doc();
  const std::vector<NodeId>* added =
      diff == nullptr ? nullptr : diff->Added(tag);
  const bool check_deleted = diff != nullptr && diff->DeletedCount() > 0;
  auto live = [&](NodeId k) {
    return !check_deleted || !diff->IsDeletedSlot(doc.SlotOfKey(k));
  };
  std::vector<NodeId> out;
  out.reserve(base.size() + (added == nullptr ? 0 : added->size()));
  size_t i = 0;
  size_t j = 0;
  while (i < base.size() && added != nullptr && j < added->size()) {
    if (base[i] < (*added)[j]) {
      if (live(base[i])) out.push_back(base[i]);
      ++i;
    } else {
      out.push_back((*added)[j]);
      ++j;
    }
  }
  for (; i < base.size(); ++i) {
    if (live(base[i])) out.push_back(base[i]);
  }
  if (added != nullptr) {
    out.insert(out.end(), added->begin() + j, added->end());
  }
  return out;
}

void CollectSubtreeMatches(const DocView& view, NodeId anchor_key, TagId tag,
                           bool child_axis, std::vector<NodeId>* out,
                           uint64_t* nodes_visited) {
  if (tag == kInvalidTag) return;
  const Document& doc = view.doc();
  const DifferentialIndex* diff = view.diff();
  if (doc.IsBaseKey(anchor_key)) {
    const NodeId aslot = doc.SlotOfKey(anchor_key);
    const NodeId end_slot = doc.EndSlotOf(aslot);
    if (nodes_visited != nullptr) *nodes_visited += end_slot - aslot;
    const uint16_t want = static_cast<uint16_t>(doc.LevelData()[aslot] + 1);
    const bool check_deleted = diff != nullptr && diff->DeletedCount() > 0;
    std::vector<NodeId> base_hits;
    for (NodeId s = aslot + 1; s <= end_slot; ++s) {
      if (doc.TagData()[s] != tag) continue;
      if (child_axis && doc.LevelData()[s] != want) continue;
      if (check_deleted && diff->IsDeletedSlot(s)) continue;
      base_hits.push_back(doc.KeyOfSlot(s));
    }
    std::vector<NodeId> overlay_hits;
    if (diff != nullptr) {
      diff->AddedInRange(tag, anchor_key, doc.EndOf(anchor_key),
                         &overlay_hits);
      if (child_axis) {
        overlay_hits.erase(
            std::remove_if(overlay_hits.begin(), overlay_hits.end(),
                           [&](NodeId k) {
                             return diff->Find(k)->level != want;
                           }),
            overlay_hits.end());
      }
      if (nodes_visited != nullptr) *nodes_visited += overlay_hits.size();
    }
    if (overlay_hits.empty()) {
      out->insert(out->end(), base_hits.begin(), base_hits.end());
    } else {
      std::merge(base_hits.begin(), base_hits.end(), overlay_hits.begin(),
                 overlay_hits.end(), std::back_inserter(*out));
    }
    return;
  }
  if (diff == nullptr) return;
  const DifferentialIndex::InsertedNode* anchor = diff->Find(anchor_key);
  if (anchor == nullptr) return;
  std::vector<NodeId> overlay_hits;
  diff->AddedInRange(tag, anchor_key, anchor->end_key, &overlay_hits);
  if (nodes_visited != nullptr) *nodes_visited += overlay_hits.size();
  const uint16_t want = static_cast<uint16_t>(anchor->level + 1);
  for (NodeId k : overlay_hits) {
    if (child_axis && diff->Find(k)->level != want) continue;
    out->push_back(k);
  }
}

}  // namespace sjos
