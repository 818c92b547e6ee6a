#include "storage/catalog.h"

#include <algorithm>

#include "common/failpoint.h"
#include "xml/builder.h"

namespace sjos {

namespace {

void AppendTouchedTags(const std::vector<DifferentialIndex::InsertedNode>& ns,
                       std::vector<TagId>* tags) {
  for (const DifferentialIndex::InsertedNode& n : ns) {
    tags->push_back(n.tag);
    if (n.parent_tag != kInvalidTag) tags->push_back(n.parent_tag);
  }
}

void FinishTouchedTags(std::vector<TagId>* tags) {
  std::sort(tags->begin(), tags->end());
  tags->erase(std::unique(tags->begin(), tags->end()), tags->end());
}

}  // namespace

Database Database::Open(Document doc, std::string name) {
  Database db;
  db.name_ = std::move(name);
  db.doc_ = std::make_unique<Document>(std::move(doc));
  db.index_ = TagIndex::Build(*db.doc_);
  db.stats_ = DocumentStats::Collect(*db.doc_, db.index_);
  return db;
}

uint64_t Database::CardinalityOf(std::string_view tag_name) const {
  TagId tag = doc_->dict().Find(tag_name);
  if (tag == kInvalidTag) return 0;
  uint64_t count = index_.Cardinality(tag);
  if (diff_ != nullptr) {
    const std::vector<NodeId>* added = diff_->Added(tag);
    if (added != nullptr) count += added->size();
    if (diff_->DeletedCount() > 0) {
      std::span<const NodeId> postings = index_.Postings(tag);
      for (NodeId key : postings) {
        if (diff_->IsDeletedSlot(doc_->SlotOfKey(key))) --count;
      }
    }
  }
  return count;
}

size_t Database::LiveNodeCount() const {
  size_t n = doc_->NumNodes();
  if (diff_ != nullptr) {
    n -= diff_->DeletedCount();
    n += diff_->InsertedCount();
  }
  return n;
}

Status Database::EnsureSpaced() {
  if (doc_->Spaced() || doc_->Empty()) return Status::OK();
  if (diff_ != nullptr && diff_->InsertedCount() > 0) {
    return Status::Internal("cannot respace under a live overlay");
  }
  SJOS_RETURN_IF_ERROR(
      doc_->Respace(Document::ChooseSpacingShift(doc_->NumNodes())));
  // Keys changed: the posting arena must be rebuilt. Slot-indexed state
  // (statistics, the overlay's deleted bitmap) is untouched.
  index_ = TagIndex::Build(*doc_);
  return Status::OK();
}

Status Database::InsertSubtree(NodeId parent_key, size_t position,
                               const Document& fragment,
                               MutationDelta* delta) {
  if (doc_->Empty()) {
    return Status::InvalidArgument("cannot insert into an empty database");
  }
  if (diff_ == nullptr) diff_ = std::make_unique<DifferentialIndex>(doc_.get());
  // Validate against the current key domain before respacing, so a
  // rejected insert leaves every key unchanged; a dense parent key then
  // maps into the spaced domain through its slot.
  SJOS_RETURN_IF_ERROR(diff_->CheckInsert(parent_key, fragment));
  if (!doc_->Spaced()) {
    const NodeId parent_slot = doc_->SlotOfKey(parent_key);
    SJOS_RETURN_IF_ERROR(EnsureSpaced());
    parent_key = doc_->KeyOfSlot(parent_slot);
    if (delta != nullptr) delta->respaced = true;
  }
  std::vector<TagId> tag_map(fragment.dict().size(), kInvalidTag);
  for (TagId t = 0; t < fragment.dict().size(); ++t) {
    tag_map[t] = doc_->mutable_dict().Intern(fragment.dict().Name(t));
  }
  std::vector<DifferentialIndex::InsertedNode> added;
  SJOS_RETURN_IF_ERROR(
      diff_->InsertSubtree(parent_key, position, fragment, tag_map, &added));
  for (const DifferentialIndex::InsertedNode& n : added) {
    stats_.ApplyInsert(n.tag, n.level);
  }
  if (delta != nullptr) {
    AppendTouchedTags(added, &delta->touched_tags);
    FinishTouchedTags(&delta->touched_tags);
    delta->added = std::move(added);
  }
  return Status::OK();
}

Status Database::DeleteSubtreeAt(NodeId key, MutationDelta* delta) {
  if (doc_->Empty()) {
    return Status::InvalidArgument("cannot delete from an empty database");
  }
  if (diff_ == nullptr) diff_ = std::make_unique<DifferentialIndex>(doc_.get());
  std::vector<DifferentialIndex::InsertedNode> removed;
  SJOS_RETURN_IF_ERROR(diff_->DeleteSubtree(key, &removed));
  for (const DifferentialIndex::InsertedNode& n : removed) {
    stats_.ApplyRemove(n.tag, n.level);
  }
  if (delta != nullptr) {
    AppendTouchedTags(removed, &delta->touched_tags);
    FinishTouchedTags(&delta->touched_tags);
    delta->removed = std::move(removed);
  }
  return Status::OK();
}

Result<Document> Database::MaterializeMerged() const {
  if (doc_->Empty()) {
    return Status::InvalidArgument("cannot materialize an empty database");
  }
  DocumentBuilder b;
  DocView view = View();
  struct Frame {
    std::vector<NodeId> kids;
    size_t next = 0;
  };
  auto children_of = [&](NodeId key) {
    return diff_ != nullptr ? diff_->MergedChildren(key)
                            : doc_->ChildrenOf(key);
  };
  auto open = [&](NodeId key) {
    b.OpenElement(doc_->dict().Name(view.TagOf(key)));
    std::string_view text = view.TextOf(key);
    if (!text.empty()) b.Text(text);
  };
  std::vector<Frame> stack;
  open(doc_->Root());
  stack.push_back(Frame{children_of(doc_->Root()), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next < f.kids.size()) {
      NodeId key = f.kids[f.next++];
      open(key);
      stack.push_back(Frame{children_of(key), 0});
    } else {
      b.CloseElement();
      stack.pop_back();
    }
  }
  return std::move(b).Build();
}

std::vector<NodeId> Database::MergedOrder() const {
  std::vector<NodeId> order;
  if (doc_->Empty()) return order;
  order.reserve(LiveNodeCount());
  auto children_of = [&](NodeId key) {
    return diff_ != nullptr ? diff_->MergedChildren(key)
                            : doc_->ChildrenOf(key);
  };
  struct Frame {
    std::vector<NodeId> kids;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  order.push_back(doc_->Root());
  stack.push_back(Frame{children_of(doc_->Root()), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next < f.kids.size()) {
      NodeId key = f.kids[f.next++];
      order.push_back(key);
      stack.push_back(Frame{children_of(key), 0});
    } else {
      stack.pop_back();
    }
  }
  return order;
}

Status Database::FlushDifferential() {
  if (diff_ == nullptr || diff_->Empty()) {
    diff_.reset();
    return Status::OK();
  }
  Result<Document> merged = MaterializeMerged();
  if (!merged.ok()) return merged.status();
  Document doc = std::move(merged).value();
  SJOS_RETURN_IF_ERROR(
      doc.Respace(Document::ChooseSpacingShift(doc.NumNodes())));
  TagIndex index = TagIndex::Build(doc);
  DocumentStats stats = DocumentStats::Collect(doc, index);
  // Build-then-swap: everything above works off local state, so a failure
  // injected here leaves the database untouched — never a torn index.
  SJOS_FAILPOINT("diff.flush");
  *doc_ = std::move(doc);
  index_ = std::move(index);
  stats_ = std::move(stats);
  diff_.reset();
  return Status::OK();
}

}  // namespace sjos
