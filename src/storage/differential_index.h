// Differential index: an in-memory overlay of subtree inserts and deletes
// on top of an immutable (spaced) Document + TagIndex, merged into reads
// at scan/navigate time and folded into the base structures by a bulk
// flush (DESIGN.md §14). Modeled on rdf3x's DifferentialIndex: writers
// mutate the small overlay under the database writer lock; readers see a
// consistent snapshot because every query holds the shared lock.
//
// Key scheme: base nodes keep their spaced order keys (slot << shift);
// inserted nodes borrow unused keys from the gap between the two
// structural events that bracket the insertion point, so containment is
// still pure key comparison — an inserted subtree's keys always lie
// strictly inside its parent's (start, end] key interval and are never
// base-aligned, so they cannot collide with a base key — not even the key
// of a deleted base node, which reads would route to the base document.

#ifndef SJOS_STORAGE_DIFFERENTIAL_INDEX_H_
#define SJOS_STORAGE_DIFFERENTIAL_INDEX_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/document.h"
#include "xml/node.h"

namespace sjos {

/// Overlay of pending inserts/deletes against one Document. Not
/// thread-safe: callers serialize writes and fence reads (the Database
/// writer lock).
class DifferentialIndex {
 public:
  /// One grafted node. Also used to describe removed nodes to callers
  /// maintaining derived statistics.
  struct InsertedNode {
    NodeId key = 0;
    NodeId end_key = 0;
    NodeId parent_key = kInvalidNode;
    TagId tag = 0;
    TagId parent_tag = kInvalidTag;
    uint16_t level = 0;
    std::string text;
  };

  explicit DifferentialIndex(const Document* doc);

  bool Empty() const { return nodes_.empty() && deleted_count_ == 0; }
  size_t InsertedCount() const { return nodes_.size(); }
  size_t DeletedCount() const { return deleted_count_; }

  /// Overlay node record for `key`, or nullptr if `key` is not an overlay
  /// node.
  const InsertedNode* Find(NodeId key) const;
  /// True if base slot `slot` has been deleted.
  bool IsDeletedSlot(NodeId slot) const {
    return slot < deleted_.size() && deleted_[slot];
  }
  /// True if `key` names a live node (an undeleted base node or an
  /// overlay node).
  bool IsLive(NodeId key) const;

  /// All overlay nodes, ordered by start key.
  const std::map<NodeId, InsertedNode>& nodes() const { return nodes_; }

  /// Overlay keys carrying `tag`, sorted; nullptr when none.
  const std::vector<NodeId>* Added(TagId tag) const;
  /// Appends the overlay keys with tag `tag` in the key range (lo, hi].
  void AddedInRange(TagId tag, NodeId lo, NodeId hi,
                    std::vector<NodeId>* out) const;

  /// Children of the live node `parent_key` in key order: undeleted base
  /// children merged with overlay children.
  std::vector<NodeId> MergedChildren(NodeId parent_key) const;

  /// The checks InsertSubtree makes before touching anything: a non-empty
  /// dense fragment, a live parent, and a level range that fits. Callers
  /// that must change the key domain first (Database respacing a dense
  /// document) run it beforehand so a rejected insert changes nothing.
  Status CheckInsert(NodeId parent_key, const Document& fragment) const;

  /// Grafts `fragment` (a freshly parsed, unspaced document) under
  /// `parent_key` as its `position`-th child (SIZE_MAX appends). tag_map
  /// translates fragment TagIds to database TagIds. Appends one record
  /// per new node to `added`. ResourceExhausted when the surrounding key
  /// gap cannot hold the fragment — the caller flushes and retries.
  Status InsertSubtree(NodeId parent_key, size_t position,
                       const Document& fragment,
                       const std::vector<TagId>& tag_map,
                       std::vector<InsertedNode>* added);

  /// Deletes the subtree rooted at `key` (base or overlay). Appends one
  /// record per removed live node to `removed`. Deleting the root is
  /// InvalidArgument; a dead or unknown key is NotFound.
  Status DeleteSubtree(NodeId key, std::vector<InsertedNode>* removed);

 private:
  bool IsLiveBaseKey(NodeId key) const;
  NodeId EndKeyOfLive(NodeId key) const;
  void EraseOverlayNode(NodeId key);

  const Document* doc_;
  std::map<NodeId, InsertedNode> nodes_;           // by start key
  std::vector<std::vector<NodeId>> added_by_tag_;  // sorted keys per tag
  std::map<NodeId, std::vector<NodeId>> children_;  // parent → overlay kids
  std::vector<bool> deleted_;                       // per base slot
  size_t deleted_count_ = 0;
};

/// A document plus (optionally) its differential overlay: the read-side
/// view every operator works against. Cheap to copy; implicitly
/// constructible from a bare Document for overlay-free callers.
class DocView {
 public:
  DocView(const Document& doc) : doc_(&doc) {}  // NOLINT: implicit
  DocView(const Document* doc, const DifferentialIndex* diff)
      : doc_(doc), diff_(diff) {}

  const Document& doc() const { return *doc_; }
  const DifferentialIndex* diff() const { return diff_; }
  bool HasOverlay() const { return diff_ != nullptr && !diff_->Empty(); }

  /// True if `key` is a base-document key (overlay keys always carry a
  /// nonzero low-bit remainder).
  bool IsBase(NodeId key) const { return doc_->IsBaseKey(key); }

  NodeId EndKeyOf(NodeId key) const {
    if (doc_->IsBaseKey(key)) return doc_->EndOf(key);
    const DifferentialIndex::InsertedNode* n = diff_->Find(key);
    return n == nullptr ? key : n->end_key;
  }
  uint16_t LevelOf(NodeId key) const {
    if (doc_->IsBaseKey(key)) return doc_->LevelOf(key);
    const DifferentialIndex::InsertedNode* n = diff_->Find(key);
    return n == nullptr ? 0 : n->level;
  }
  TagId TagOf(NodeId key) const {
    if (doc_->IsBaseKey(key)) return doc_->TagOf(key);
    const DifferentialIndex::InsertedNode* n = diff_->Find(key);
    return n == nullptr ? kInvalidTag : n->tag;
  }
  std::string_view TextOf(NodeId key) const {
    if (doc_->IsBaseKey(key)) return doc_->TextOf(key);
    const DifferentialIndex::InsertedNode* n = diff_->Find(key);
    return n == nullptr ? std::string_view{} : std::string_view(n->text);
  }
  /// True if `a` is a proper ancestor of `d` — pure key comparison, valid
  /// across base/overlay mixes because overlay intervals nest strictly
  /// inside their parent's interval.
  bool IsAncestorKey(NodeId a, NodeId d) const {
    return a < d && d <= EndKeyOf(a);
  }

 private:
  const Document* doc_;
  const DifferentialIndex* diff_ = nullptr;
};

/// Order-preserving merge of the base posting list for `tag` (deleted
/// nodes filtered out) with the overlay's added keys.
std::vector<NodeId> MergedPostings(std::span<const NodeId> base,
                                   const DocView& view, TagId tag);

/// Appends, in key order, every live node carrying `tag` in the subtree
/// of `anchor_key` (or only its children when `child_axis`): the
/// overlay-aware walk behind NavigateOperator. Adds the number of nodes
/// inspected to `nodes_visited` when non-null.
void CollectSubtreeMatches(const DocView& view, NodeId anchor_key, TagId tag,
                           bool child_axis, std::vector<NodeId>* out,
                           uint64_t* nodes_visited);

}  // namespace sjos

#endif  // SJOS_STORAGE_DIFFERENTIAL_INDEX_H_
