// Node identity and interval numbering.
//
// Documents store elements in document order, so a node's index in the
// document IS its pre-order rank ("start" position in the paper's
// (start, end, level) numbering; see Sec. 2.2.1 of Wu/Patel/Jagadish and
// the Stack-Tree paper [Al-Khalifa et al., ICDE 2002]). Each node
// additionally records the pre-order rank of its last descendant ("end",
// inclusive) and its depth ("level"), which makes the ancestor test a pair
// of integer comparisons.

#ifndef SJOS_XML_NODE_H_
#define SJOS_XML_NODE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sjos {

/// Index of a node within a Document; equals the node's pre-order rank.
using NodeId = uint32_t;

/// Index into a document's tag dictionary.
using TagId = uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr TagId kInvalidTag = std::numeric_limits<TagId>::max();

/// Interns tag names to dense TagIds. Lookup by name or id; ids are assigned
/// in first-seen order and are stable for the life of the dictionary.
class TagDictionary {
 public:
  /// Returns the id for `name`, interning it if new.
  TagId Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidTag if never interned.
  TagId Find(std::string_view name) const;

  /// Returns the name for `id`. `id` must be valid.
  const std::string& Name(TagId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId> ids_;
};

}  // namespace sjos

#endif  // SJOS_XML_NODE_H_
