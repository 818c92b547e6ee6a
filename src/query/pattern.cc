#include "query/pattern.h"

#include <algorithm>

#include "common/str_util.h"

namespace sjos {

const char* AxisToken(Axis axis) {
  return axis == Axis::kChild ? "/" : "//";
}

bool ValuePredicate::Matches(std::string_view text) const {
  switch (kind) {
    case Kind::kNone:
      return true;
    case Kind::kEquals:
      return text == value;
    case Kind::kContains:
      return text.find(value) != std::string_view::npos;
  }
  return true;
}

std::string ValuePredicate::ToString() const {
  switch (kind) {
    case Kind::kNone:
      return "";
    case Kind::kEquals:
      return "='" + value + "'";
    case Kind::kContains:
      return "~'" + value + "'";
  }
  return "";
}

PatternNodeId Pattern::AddRoot(std::string tag) {
  SJOS_CHECK(nodes_.empty(), "AddRoot on non-empty pattern");
  nodes_.push_back(
      PatternNode{std::move(tag), kNoPatternNode, Axis::kChild, {}});
  return 0;
}

PatternNodeId Pattern::AddChild(PatternNodeId parent, std::string tag,
                                Axis axis) {
  SJOS_CHECK(parent >= 0 && static_cast<size_t>(parent) < nodes_.size(),
             "AddChild with invalid parent");
  nodes_.push_back(PatternNode{std::move(tag), parent, axis, {}});
  return static_cast<PatternNodeId>(nodes_.size() - 1);
}

void Pattern::SetPredicate(PatternNodeId id, ValuePredicate predicate) {
  SJOS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
             "SetPredicate with invalid node");
  nodes_[static_cast<size_t>(id)].predicate = std::move(predicate);
}

void Pattern::SetUnindexed(PatternNodeId id) {
  SJOS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
             "SetUnindexed with invalid node");
  nodes_[static_cast<size_t>(id)].indexed = false;
}

std::vector<PatternNodeId> Pattern::ChildrenOf(PatternNodeId id) const {
  std::vector<PatternNodeId> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parent == id) out.push_back(static_cast<PatternNodeId>(i));
  }
  return out;
}

std::vector<PatternNodeId> Pattern::NeighborsOf(PatternNodeId id) const {
  std::vector<PatternNodeId> out;
  if (nodes_[static_cast<size_t>(id)].parent != kNoPatternNode) {
    out.push_back(nodes_[static_cast<size_t>(id)].parent);
  }
  for (PatternNodeId child : ChildrenOf(id)) out.push_back(child);
  return out;
}

std::vector<Pattern::Edge> Pattern::Edges() const {
  std::vector<Edge> out;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    out.push_back(Edge{nodes_[i].parent, static_cast<PatternNodeId>(i),
                       nodes_[i].axis});
  }
  return out;
}

Status Pattern::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("pattern has no nodes");
  if (nodes_[0].parent != kNoPatternNode) {
    return Status::InvalidArgument("pattern node 0 must be the root");
  }
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].parent < 0 || static_cast<size_t>(nodes_[i].parent) >= i) {
      return Status::InvalidArgument(
          StrFormat("pattern node %zu has invalid parent", i));
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].tag.empty()) {
      return Status::InvalidArgument(
          StrFormat("pattern node %zu has empty tag", i));
    }
  }
  if (!nodes_[0].indexed) {
    return Status::InvalidArgument(
        "the pattern root must be indexed (navigation only reaches "
        "descendants)");
  }
  if (order_by_ != kNoPatternNode &&
      (order_by_ < 0 || static_cast<size_t>(order_by_) >= nodes_.size())) {
    return Status::InvalidArgument("order_by out of range");
  }
  return Status::OK();
}

void Pattern::AppendNodeString(PatternNodeId id, std::string* out) const {
  *out += nodes_[static_cast<size_t>(id)].tag;
  if (!nodes_[static_cast<size_t>(id)].indexed) *out += '?';
  *out += nodes_[static_cast<size_t>(id)].predicate.ToString();
  for (PatternNodeId child : ChildrenOf(id)) {
    *out += '[';
    *out += AxisToken(nodes_[static_cast<size_t>(child)].axis);
    AppendNodeString(child, out);
    *out += ']';
  }
}

std::string Pattern::ToString() const {
  if (nodes_.empty()) return "<empty>";
  std::string out;
  AppendNodeString(0, &out);
  if (order_by_ != kNoPatternNode) {
    out += StrFormat(" order-by #%d(%s)", order_by_,
                     nodes_[static_cast<size_t>(order_by_)].tag.c_str());
  }
  return out;
}

namespace {

// Appends the canonical encoding of the subtree rooted at `id` to the return
// value and the subtree's nodes to `order` in canonical pre-order. Strings
// (tags, predicate values) are length-prefixed so the encoding is injective:
// no choice of tag or value can collide with the structural markers.
std::string EncodeSubtree(const Pattern& p, PatternNodeId id,
                          std::vector<PatternNodeId>* order) {
  const PatternNode& n = p.node(id);
  std::string enc;
  if (n.parent != kNoPatternNode) enc += AxisToken(n.axis);
  enc += std::to_string(n.tag.size());
  enc += ':';
  enc += n.tag;
  if (!n.indexed) enc += '?';
  if (!n.predicate.Empty()) {
    enc += n.predicate.kind == ValuePredicate::Kind::kEquals ? '=' : '~';
    enc += std::to_string(n.predicate.value.size());
    enc += ':';
    enc += n.predicate.value;
  }
  order->push_back(id);
  struct ChildEnc {
    std::string enc;
    std::vector<PatternNodeId> order;
    PatternNodeId id;
  };
  std::vector<ChildEnc> kids;
  for (PatternNodeId child : p.ChildrenOf(id)) {
    ChildEnc ce;
    ce.id = child;
    ce.enc = EncodeSubtree(p, child, &ce.order);
    kids.push_back(std::move(ce));
  }
  // Identical sibling subtrees tie-break on id so the node mapping stays
  // deterministic; the key itself is unaffected by the tie-break.
  std::sort(kids.begin(), kids.end(), [](const ChildEnc& a, const ChildEnc& b) {
    if (a.enc != b.enc) return a.enc < b.enc;
    return a.id < b.id;
  });
  for (const ChildEnc& ce : kids) {
    enc += '[';
    enc += ce.enc;
    enc += ']';
    order->insert(order->end(), ce.order.begin(), ce.order.end());
  }
  return enc;
}

}  // namespace

PatternFingerprint Pattern::CanonicalFingerprint() const {
  PatternFingerprint fp;
  if (nodes_.empty()) return fp;
  fp.key = EncodeSubtree(*this, 0, &fp.canonical_to_node);
  if (order_by_ != kNoPatternNode) {
    // Record order_by as a canonical position so reordered-sibling patterns
    // that order by corresponding nodes still share a key.
    for (size_t i = 0; i < fp.canonical_to_node.size(); ++i) {
      if (fp.canonical_to_node[i] == order_by_) {
        fp.key += '!';
        fp.key += std::to_string(i);
        break;
      }
    }
  }
  return fp;
}

std::string Pattern::CanonicalKey() const { return CanonicalFingerprint().key; }

bool Pattern::operator==(const Pattern& other) const {
  if (nodes_.size() != other.nodes_.size() || order_by_ != other.order_by_) {
    return false;
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const PatternNode& a = nodes_[i];
    const PatternNode& b = other.nodes_[i];
    if (a.tag != b.tag || a.parent != b.parent ||
        a.predicate != b.predicate || a.indexed != b.indexed ||
        (i > 0 && a.axis != b.axis)) {
      return false;
    }
  }
  return true;
}

}  // namespace sjos
