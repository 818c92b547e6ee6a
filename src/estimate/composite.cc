#include "estimate/composite.h"

#include "common/metrics.h"

namespace sjos {

Result<PatternEstimates> PatternEstimates::Make(
    const Pattern& pattern, const Document& doc,
    const CardinalityEstimator& estimator) {
  if (pattern.NumNodes() > 64) {
    return Status::Unsupported("patterns with more than 64 nodes");
  }
  SJOS_RETURN_IF_ERROR(pattern.Validate());
  PatternEstimates est;
  est.pattern_ = &pattern;
  est.edges_ = pattern.Edges();
  est.node_cards_.resize(pattern.NumNodes());
  est.node_subtree_sizes_.resize(pattern.NumNodes());
  // Raw (pre-predicate) candidate counts feed the edge selectivities; the
  // exposed NodeCard applies the value-predicate selectivity on top, under
  // the usual predicate/structure independence assumption.
  std::vector<double> raw_cards(pattern.NumNodes());
  for (size_t i = 0; i < pattern.NumNodes(); ++i) {
    const PatternNode& node = pattern.node(static_cast<PatternNodeId>(i));
    TagId tag = doc.dict().Find(node.tag);
    raw_cards[i] = tag == kInvalidTag ? 0.0 : estimator.TagCardinality(tag);
    est.node_subtree_sizes_[i] =
        tag == kInvalidTag ? 0.0 : estimator.AvgSubtreeSize(tag);
    double selectivity =
        tag == kInvalidTag
            ? 0.0
            : estimator.PredicateSelectivity(tag, node.predicate);
    est.node_cards_[i] = raw_cards[i] * selectivity;
  }
  est.edge_cards_.resize(est.edges_.size());
  est.edge_sels_.resize(est.edges_.size());
  for (size_t e = 0; e < est.edges_.size(); ++e) {
    const Pattern::Edge& edge = est.edges_[e];
    TagId a = doc.dict().Find(pattern.node(edge.parent).tag);
    TagId d = doc.dict().Find(pattern.node(edge.child).tag);
    double join = (a == kInvalidTag || d == kInvalidTag)
                      ? 0.0
                      : estimator.EstimateEdgeJoin(a, d, edge.axis);
    est.edge_cards_[e] = join;
    double denom = raw_cards[static_cast<size_t>(edge.parent)] *
                   raw_cards[static_cast<size_t>(edge.child)];
    est.edge_sels_[e] = denom > 0.0 ? join / denom : 0.0;
  }
  return est;
}

double PatternEstimates::ClusterCard(NodeMask mask) const {
  static Counter& calls = MetricsRegistry::Global().GetCounter(
      "sjos_est_cluster_card_calls_total");
  calls.Add(1);
  auto it = cluster_memo_.find(mask);
  if (it != cluster_memo_.end()) return it->second;
  double card = 1.0;
  for (size_t i = 0; i < node_cards_.size(); ++i) {
    if (mask & MaskOf(static_cast<PatternNodeId>(i))) card *= node_cards_[i];
  }
  for (size_t e = 0; e < edges_.size(); ++e) {
    const Pattern::Edge& edge = edges_[e];
    if ((mask & MaskOf(edge.parent)) && (mask & MaskOf(edge.child))) {
      card *= edge_sels_[e];
    }
  }
  cluster_memo_.emplace(mask, card);
  return card;
}

}  // namespace sjos
