// In-memory XML document: a rooted, node-labelled, ordered tree stored in
// struct-of-arrays form in document (pre-order) order. This is the database
// instance T = (V_T, E_T) of the paper's Sec. 2.1; tag indexes and all join
// operators work off the (start, end, level) numbering exposed here.
//
// Gap-tolerant numbering (DESIGN.md §14): a document can be "respaced" so
// that public node identifiers become *order keys* — the pre-order slot
// shifted left by a spacing factor — leaving key gaps between consecutive
// structural events. Subtree inserts then allocate keys from the gaps
// without renumbering existing nodes. A freshly built document has
// KeyShift() == 0, where keys and slots coincide and behavior is
// byte-identical to the historical dense numbering.

#ifndef SJOS_XML_DOCUMENT_H_
#define SJOS_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/node.h"

namespace sjos {

/// Immutable (post-construction) XML tree. Built via DocumentBuilder.
///
/// Node identifiers are *base keys*: the pre-order rank (slot) shifted left
/// by KeyShift(). Node 0 is always the root, and a node's descendants
/// occupy the contiguous key range (key, EndOf(key)]. All public accessors
/// take base keys; the raw *Data() columns remain slot-indexed.
class Document {
 public:
  Document() = default;

  // Movable, not copyable (documents can hold millions of nodes).
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  size_t NumNodes() const { return tags_.size(); }
  bool Empty() const { return tags_.empty(); }

  NodeId Root() const { return 0; }

  /// Spacing between consecutive slots in key space: keys are
  /// slot << KeyShift(). 0 means dense (keys == slots).
  uint32_t KeyShift() const { return key_shift_; }
  bool Spaced() const { return key_shift_ != 0; }

  /// Base key of pre-order slot `slot`.
  NodeId KeyOfSlot(NodeId slot) const { return slot << key_shift_; }
  /// Pre-order slot of base key `key`.
  NodeId SlotOfKey(NodeId key) const { return key >> key_shift_; }
  /// True if `key` is a base key (lands exactly on a slot); keys with a
  /// nonzero low-bit remainder belong to a differential overlay.
  bool IsBaseKey(NodeId key) const {
    return (key & ((NodeId{1} << key_shift_) - 1)) == 0;
  }
  /// Exclusive upper bound of the key space: NumNodes() << KeyShift().
  uint64_t KeyDomain() const {
    return static_cast<uint64_t>(NumNodes()) << key_shift_;
  }

  TagId TagOf(NodeId key) const { return tags_[key >> key_shift_]; }
  const std::string& TagNameOf(NodeId key) const {
    return dict_.Name(tags_[key >> key_shift_]);
  }
  /// End key of the subtree rooted at `key`: descendants occupy the key
  /// range (key, EndOf(key)]. When spaced, close events are staggered
  /// inside the gap of the closing slot so sibling/parent ends stay
  /// distinct and insert gaps survive.
  NodeId EndOf(NodeId key) const {
    return key_shift_ == 0 ? ends_[key] : end_keys_[key >> key_shift_];
  }
  uint16_t LevelOf(NodeId key) const { return levels_[key >> key_shift_]; }
  NodeId ParentOf(NodeId key) const {
    NodeId p = parents_[key >> key_shift_];
    return p == kInvalidNode ? kInvalidNode : p << key_shift_;
  }

  /// Last pre-order slot of the subtree rooted at slot `slot` (slot-space
  /// twin of EndOf, for dense column sweeps).
  NodeId EndSlotOf(NodeId slot) const { return ends_[slot]; }

  /// Raw column views over the SoA node arrays (NumNodes() entries each),
  /// the inputs of the vectorized kernels in exec/vector_kernels.h. These
  /// are SLOT-indexed: a node's subtree is the contiguous slot range
  /// (slot, EndSlotOf(slot)], so tag and level filtering over a subtree
  /// are dense column sweeps regardless of spacing.
  const TagId* TagData() const { return tags_.data(); }
  const uint16_t* LevelData() const { return levels_.data(); }

  /// True if `a` is a proper ancestor of `d` (both base keys).
  bool IsAncestor(NodeId a, NodeId d) const { return a < d && d <= EndOf(a); }

  /// True if `a` is the parent of `d`.
  bool IsParent(NodeId a, NodeId d) const {
    return IsAncestor(a, d) && LevelOf(d) == LevelOf(a) + 1;
  }

  /// Text value of node `key`; empty if the node carries no text.
  std::string_view TextOf(NodeId key) const;

  /// Children of `key` in document order (materialized on each call).
  std::vector<NodeId> ChildrenOf(NodeId key) const;

  /// Maximum depth of any node (root = 0); 0 for an empty document.
  uint16_t MaxLevel() const;

  const TagDictionary& dict() const { return dict_; }
  TagDictionary& mutable_dict() { return dict_; }

  /// Renumbers the key space with spacing 1 << shift. Existing node keys
  /// all change (key = slot << shift); close events are staggered inside
  /// the gap of their closing slot, deepest first, so that a chain of c
  /// nodes closing at slot e gets strictly increasing end keys whenever
  /// c < 1 << shift. shift == 0 restores dense numbering.
  Status Respace(uint32_t shift);

  /// Largest spacing shift (≤ 6) whose key domain for `n` nodes stays
  /// comfortably inside the 32-bit NodeId space.
  static uint32_t ChooseSpacingShift(size_t n);

  /// Structural sanity check: pre-order invariants on ends/levels/parents,
  /// plus end-key nesting when spaced. Returns the first violated
  /// invariant, or OK. Used by tests and after folding/parsing.
  Status Validate() const;

 private:
  friend class DocumentBuilder;
  friend Result<Document> FoldDocument(const Document& doc, uint32_t factor);

  std::vector<TagId> tags_;
  std::vector<NodeId> ends_;
  std::vector<uint16_t> levels_;
  std::vector<NodeId> parents_;
  // Sparse text storage: texts_[text_index_[id] - 1]; 0 means "no text".
  std::vector<uint32_t> text_index_;
  std::vector<std::string> texts_;
  TagDictionary dict_;
  // Spacing state: when key_shift_ > 0, end_keys_ holds one explicit end
  // key per slot (ends_ keeps the slot-space subtree bounds).
  uint32_t key_shift_ = 0;
  std::vector<NodeId> end_keys_;
};

}  // namespace sjos

#endif  // SJOS_XML_DOCUMENT_H_
