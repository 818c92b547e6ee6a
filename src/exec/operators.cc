#include "exec/operators.h"

namespace sjos {

ColumnBatch ScanCandidateColumns(const Database& db, const Pattern& pattern,
                                 PatternNodeId node) {
  ColumnBatch set({node});
  const PatternNode& pnode = pattern.node(node);
  TagId tag = db.doc().dict().Find(pnode.tag);
  if (tag != kInvalidTag) {
    const DocView view = db.View();
    std::span<const NodeId> postings = db.index().Postings(tag);
    std::vector<NodeId>& col = set.Raw(0);
    if (!view.HasOverlay()) {
      if (pnode.predicate.Empty()) {
        // No value predicate: the posting arena slice IS the column.
        col.assign(postings.begin(), postings.end());
      } else {
        col.reserve(postings.size());
        for (NodeId id : postings) {
          if (pnode.predicate.Matches(db.doc().TextOf(id))) col.push_back(id);
        }
      }
    } else {
      // Order-preserving merge of base postings (deletes filtered) with
      // the overlay's added keys.
      std::vector<NodeId> merged = MergedPostings(postings, view, tag);
      if (pnode.predicate.Empty()) {
        col = std::move(merged);
      } else {
        col.reserve(merged.size());
        for (NodeId id : merged) {
          if (pnode.predicate.Matches(view.TextOf(id))) col.push_back(id);
        }
      }
    }
    set.SetRows(col.size());
  }
  set.set_ordered_by_slot(0);
  return set;
}

}  // namespace sjos
