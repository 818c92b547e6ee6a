#include "xml/fold.h"

namespace sjos {

Result<Document> FoldDocument(const Document& doc, uint32_t factor) {
  if (factor == 0) {
    return Status::InvalidArgument("folding factor must be >= 1");
  }
  if (doc.Empty()) return Status::InvalidArgument("cannot fold empty document");
  if (doc.Spaced()) {
    return Status::InvalidArgument(
        "cannot fold a spaced document; materialize it dense first");
  }

  const NodeId n = static_cast<NodeId>(doc.NumNodes());
  const NodeId body = n - 1;  // nodes under the root, per copy

  Document out;
  const size_t total = 1 + static_cast<size_t>(body) * factor;
  if (total > static_cast<size_t>(kInvalidNode)) {
    return Status::OutOfRange("folded document exceeds NodeId range");
  }
  out.tags_.reserve(total);
  out.ends_.reserve(total);
  out.levels_.reserve(total);
  out.parents_.reserve(total);
  out.text_index_.reserve(total);

  // Same dictionary contents: copy tag names in id order so TagIds carry over.
  for (TagId t = 0; t < doc.dict().size(); ++t) {
    out.dict_.Intern(doc.dict().Name(t));
  }

  // Root.
  out.tags_.push_back(doc.TagOf(doc.Root()));
  out.ends_.push_back(static_cast<NodeId>(total - 1));
  out.levels_.push_back(0);
  out.parents_.push_back(kInvalidNode);
  out.text_index_.push_back(0);

  for (uint32_t copy = 0; copy < factor; ++copy) {
    const NodeId offset = 1 + copy * body;  // new id of old node 1
    for (NodeId id = 1; id < n; ++id) {
      const NodeId new_id = offset + (id - 1);
      (void)new_id;
      out.tags_.push_back(doc.TagOf(id));
      out.ends_.push_back(offset + (doc.EndOf(id) - 1));
      out.levels_.push_back(doc.LevelOf(id));
      const NodeId parent = doc.ParentOf(id);
      out.parents_.push_back(parent == doc.Root() ? 0 : offset + (parent - 1));
      std::string_view text = doc.TextOf(id);
      if (text.empty()) {
        out.text_index_.push_back(0);
      } else {
        out.texts_.emplace_back(text);
        out.text_index_.push_back(static_cast<uint32_t>(out.texts_.size()));
      }
    }
  }

  SJOS_RETURN_IF_ERROR(out.Validate());
  return out;
}

}  // namespace sjos
