#include "estimate/exact_estimator.h"

#include <vector>

namespace sjos {

double ExactEstimator::TagCardinality(TagId tag) const {
  return static_cast<double>(index_.Cardinality(tag));
}

uint64_t ExactEstimator::CountJoin(TagId a, TagId d, Axis axis) const {
  // Merge the two document-ordered lists with a stack of open ancestors —
  // the counting core of Stack-Tree-Desc. Each descendant contributes one
  // pair per stacked ancestor (A-D) or per stacked ancestor exactly one
  // level up (P-C).
  std::span<const NodeId> ancestors = index_.Postings(a);
  std::span<const NodeId> descendants = index_.Postings(d);
  uint64_t count = 0;
  std::vector<NodeId> stack;
  size_t ai = 0;
  for (NodeId dn : descendants) {
    // Push every ancestor-candidate that starts before dn.
    while (ai < ancestors.size() && ancestors[ai] < dn) {
      NodeId an = ancestors[ai++];
      // Pop candidates that closed before an opens.
      while (!stack.empty() && doc_.EndOf(stack.back()) < an) stack.pop_back();
      stack.push_back(an);
    }
    // Pop candidates closed before dn.
    while (!stack.empty() && doc_.EndOf(stack.back()) < dn) stack.pop_back();
    if (axis == Axis::kDescendant) {
      count += stack.size();
    } else {
      const uint16_t dl = doc_.LevelOf(dn);
      // Parent, if present, is the unique stack entry one level up; the
      // stack holds a nested chain so levels increase towards the top.
      for (size_t k = stack.size(); k > 0; --k) {
        uint16_t al = doc_.LevelOf(stack[k - 1]);
        if (al + 1 == dl) {
          ++count;
          break;
        }
        if (al + 1 < dl) break;
      }
    }
  }
  return count;
}

double ExactEstimator::AvgSubtreeSize(TagId tag) const {
  std::span<const NodeId> postings = index_.Postings(tag);
  if (postings.empty()) return 0.0;
  uint64_t total = 0;
  for (NodeId id : postings) total += doc_.EndOf(id) - id;
  return static_cast<double>(total) / static_cast<double>(postings.size());
}

double ExactEstimator::PredicateSelectivity(
    TagId tag, const ValuePredicate& predicate) const {
  if (predicate.Empty()) return 1.0;
  std::span<const NodeId> postings = index_.Postings(tag);
  if (postings.empty()) return 0.0;
  std::string key = std::to_string(tag) + "|" +
                    std::to_string(static_cast<int>(predicate.kind)) + "|" +
                    predicate.value;
  auto it = predicate_memo_.find(key);
  if (it != predicate_memo_.end()) return it->second;
  uint64_t matches = 0;
  for (NodeId id : postings) {
    if (predicate.Matches(doc_.TextOf(id))) ++matches;
  }
  double selectivity =
      static_cast<double>(matches) / static_cast<double>(postings.size());
  predicate_memo_.emplace(std::move(key), selectivity);
  return selectivity;
}

double ExactEstimator::EstimateEdgeJoin(TagId ancestor_tag,
                                        TagId descendant_tag,
                                        Axis axis) const {
  uint64_t key = (static_cast<uint64_t>(ancestor_tag) << 33) |
                 (static_cast<uint64_t>(descendant_tag) << 1) |
                 (axis == Axis::kChild ? 1u : 0u);
  auto it = memo_.find(key);
  if (it != memo_.end()) return static_cast<double>(it->second);
  uint64_t count = CountJoin(ancestor_tag, descendant_tag, axis);
  memo_.emplace(key, count);
  return static_cast<double>(count);
}

}  // namespace sjos
