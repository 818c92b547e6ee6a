// PatternEstimates: per-query view over a CardinalityEstimator. Resolves
// the pattern's tag names against the document dictionary once, then
// serves (a) candidate-list sizes per pattern node, (b) join sizes per
// pattern edge, and (c) sub-pattern (cluster) cardinalities composed under
// the standard independence assumption:
//
//   |cluster| = Π_{node in cluster} |node| × Π_{edge inside cluster} sel(edge)
//   sel(edge) = |A join B| / (|A| × |B|)
//
// Clusters are identified by node bit masks (patterns are small trees, so a
// 64-bit mask suffices); results are memoized.

#ifndef SJOS_ESTIMATE_COMPOSITE_H_
#define SJOS_ESTIMATE_COMPOSITE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "estimate/estimator.h"
#include "query/pattern.h"
#include "xml/document.h"

namespace sjos {

/// Node-set mask within one pattern (bit i = pattern node i).
using NodeMask = uint64_t;

inline NodeMask MaskOf(PatternNodeId id) { return NodeMask{1} << id; }

/// Cached cardinalities for one (pattern, document, estimator) triple.
class PatternEstimates {
 public:
  /// Fails if the pattern has more than 64 nodes.
  static Result<PatternEstimates> Make(const Pattern& pattern,
                                       const Document& doc,
                                       const CardinalityEstimator& estimator);

  const Pattern& pattern() const { return *pattern_; }

  /// Candidate-list size of pattern node `id` (0 if its tag is absent).
  double NodeCard(PatternNodeId id) const {
    return node_cards_[static_cast<size_t>(id)];
  }

  /// Join size of pattern edge `e` (edges indexed as in Pattern::Edges()).
  double EdgeJoinCard(size_t edge_index) const {
    return edge_cards_[edge_index];
  }

  /// Mean descendant count of pattern node `id`'s tag — the per-anchor
  /// cost of evaluating one of its outgoing edges by navigation.
  double NodeSubtreeSize(PatternNodeId id) const {
    return node_subtree_sizes_[static_cast<size_t>(id)];
  }

  /// Estimated tuple count of the sub-pattern induced by `mask` (must be a
  /// connected cluster; composition formula above). Memoized.
  double ClusterCard(NodeMask mask) const;

  size_t NumEdges() const { return edges_.size(); }

 private:
  const Pattern* pattern_ = nullptr;
  std::vector<Pattern::Edge> edges_;
  std::vector<double> node_cards_;
  std::vector<double> node_subtree_sizes_;
  std::vector<double> edge_cards_;
  std::vector<double> edge_sels_;
  mutable std::unordered_map<NodeMask, double> cluster_memo_;
};

}  // namespace sjos

#endif  // SJOS_ESTIMATE_COMPOSITE_H_
