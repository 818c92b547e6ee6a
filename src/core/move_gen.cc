#include "core/move_gen.h"

#include <algorithm>
#include <bit>

namespace sjos {

MoveGenerator::MoveGenerator(const Pattern& pattern,
                             const PatternEstimates& estimates,
                             const CostModel& cost_model)
    : pattern_(&pattern),
      estimates_(&estimates),
      cost_model_(&cost_model),
      edges_(pattern.Edges()) {}

size_t MoveGenerator::Enumerate(const OptStatus& status,
                                const MoveGenOptions& options,
                                std::vector<Move>* out) const {
  size_t considered = 0;
  std::array<NodeMask, kMaxPatternNodes> masks;
  status.AllClusterMasks(&masks);
  // Number of multi-node clusters, for the left-deep restriction.
  int multi_clusters = 0;
  PatternNodeId growing_rep = kNoPatternNode;
  if (options.left_deep_only) {
    for (size_t i = 0; i < status.num_nodes(); ++i) {
      PatternNodeId id = static_cast<PatternNodeId>(i);
      if (status.RepOf(id) == id &&
          std::popcount(static_cast<uint64_t>(masks[i])) > 1) {
        ++multi_clusters;
        growing_rep = id;
      }
    }
  }

  for (size_t e = 0; e < edges_.size(); ++e) {
    if (status.EdgeJoined(e)) continue;
    const Pattern::Edge& edge = edges_[e];
    const PatternNodeId p = edge.parent;
    const PatternNodeId c = edge.child;

    if (options.left_deep_only && multi_clusters > 0) {
      // The move must extend the single growing cluster.
      if (status.RepOf(p) != growing_rep && status.RepOf(c) != growing_rep) {
        continue;
      }
    }

    const NodeMask anc_mask = masks[static_cast<size_t>(p)];
    const NodeMask desc_mask = masks[static_cast<size_t>(c)];
    const double anc_card = estimates_->ClusterCard(anc_mask);
    const double merged_card = estimates_->ClusterCard(anc_mask | desc_mask);

    // An unindexed node that is still an un-joined singleton has no
    // candidate stream: joins touching it are impossible, only navigation
    // reaches it. Navigation requires the anchor side to have a stream.
    const bool p_blocked =
        anc_mask == MaskOf(p) && !pattern_->node(p).indexed;
    const bool c_blocked =
        desc_mask == MaskOf(c) && !pattern_->node(c).indexed;

    // Navigation (into a singleton descendant, from a streamable anchor
    // cluster): no ordering requirement, output keeps the anchor
    // cluster's order. By default only offered out of necessity
    // (unindexed descendant), keeping the paper's join-only space
    // otherwise.
    if (desc_mask == MaskOf(c) && !p_blocked &&
        (c_blocked || options.navigation_everywhere)) {
      Move move;
      move.edge_index = static_cast<uint8_t>(e);
      move.navigate = true;
      move.cost = cost_model_->Navigate(
          anc_card, estimates_->NodeSubtreeSize(p), merged_card);
      out->push_back(move);
      ++considered;
    }

    const bool anc_ordered = status.OrderOf(p) == p;
    const bool desc_ordered = status.OrderOf(c) == c;
    if (p_blocked || c_blocked) continue;           // no join possible
    if (!anc_ordered && !desc_ordered) continue;    // needs two sorts: illegal

    double sort_cost = 0.0;
    PatternNodeId sort_node = kNoPatternNode;
    if (!anc_ordered) {
      sort_node = p;
      sort_cost = cost_model_->Sort(anc_card);
    } else if (!desc_ordered) {
      sort_node = c;
      sort_cost = cost_model_->Sort(estimates_->ClusterCard(desc_mask));
    }

    // Stack-Tree-Desc first: on exact cost ties (zero-row estimates) the
    // search keeps the first-seen alternative, and STD is the cheaper
    // operator in practice (no per-stack-entry pair buffering).
    {
      Move move;
      move.edge_index = static_cast<uint8_t>(e);
      move.stack_tree_anc = false;
      move.sort_node = sort_node;
      move.cost =
          sort_cost + cost_model_->StackTreeDesc(anc_card, merged_card);
      out->push_back(move);
      ++considered;
    }
    // Stack-Tree-Anc: output ordered by ancestor.
    {
      Move move;
      move.edge_index = static_cast<uint8_t>(e);
      move.stack_tree_anc = true;
      move.sort_node = sort_node;
      move.cost = sort_cost + cost_model_->StackTreeAnc(merged_card, anc_card);
      out->push_back(move);
      ++considered;
    }
  }
  return considered;
}

OptStatus MoveGenerator::Apply(const OptStatus& status, const Move& move) const {
  const Pattern::Edge& edge = edges_[move.edge_index];
  // Navigation keeps the anchor cluster's ordering; joins order by the
  // chosen algorithm's side.
  const PatternNodeId new_order =
      move.navigate ? status.OrderOf(edge.parent)
                    : (move.stack_tree_anc ? edge.parent : edge.child);
  return status.AfterJoin(edge.parent, edge.child, move.edge_index, new_order);
}

bool MoveGenerator::IsDeadend(const OptStatus& status) const {
  if (status.IsFinal(edges_.size())) return false;
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (status.EdgeJoined(e)) continue;
    const Pattern::Edge& edge = edges_[e];
    const bool p_blocked =
        status.ClusterMaskOf(edge.parent) == MaskOf(edge.parent) &&
        !pattern_->node(edge.parent).indexed;
    const bool c_singleton =
        status.ClusterMaskOf(edge.child) == MaskOf(edge.child);
    const bool c_blocked = c_singleton && !pattern_->node(edge.child).indexed;
    // Navigation escape (necessity only mirrors the default enumeration):
    // unindexed singleton descendant, streamable anchor.
    if (c_singleton && c_blocked && !p_blocked) return false;
    // Join escape: streams on both sides, at most one mis-ordered input.
    if (!p_blocked && !c_blocked &&
        (status.OrderOf(edge.parent) == edge.parent ||
         status.OrderOf(edge.child) == edge.child)) {
      return false;
    }
  }
  return true;
}

double MoveGenerator::UbCost(const OptStatus& status) const {
  std::array<NodeMask, kMaxPatternNodes> masks;
  status.AllClusterMasks(&masks);
  // Per the paper: the cost of the join operations for each un-joined edge,
  // bottom-up, plus sorting cost when necessary. We charge the cheap
  // Stack-Tree-Desc join per edge on the *current* cluster sizes, and a
  // sort per input that is mis-ordered right now. Cluster sizes evolve as
  // joins complete, so this is an estimate; it only orders the priority
  // list — pruning correctness rests solely on accumulated Cost vs the
  // best complete plan.
  double total = 0.0;
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (status.EdgeJoined(e)) continue;
    const Pattern::Edge& edge = edges_[e];
    const NodeMask anc_mask = masks[static_cast<size_t>(edge.parent)];
    const NodeMask desc_mask = masks[static_cast<size_t>(edge.child)];
    const double anc_card = estimates_->ClusterCard(anc_mask);
    const double merged_card = estimates_->ClusterCard(anc_mask | desc_mask);
    // Edges ending in an unindexed singleton can only be navigated.
    if (desc_mask == MaskOf(edge.child) &&
        !pattern_->node(edge.child).indexed) {
      total += cost_model_->Navigate(
          anc_card, estimates_->NodeSubtreeSize(edge.parent), merged_card);
      continue;
    }
    total += cost_model_->StackTreeDesc(anc_card, merged_card);
    if (status.OrderOf(edge.parent) != edge.parent) {
      total += cost_model_->Sort(anc_card);
    }
    if (status.OrderOf(edge.child) != edge.child) {
      total += cost_model_->Sort(estimates_->ClusterCard(desc_mask));
    }
  }
  return total;
}

double MoveGenerator::FinalOrderFixCost(const OptStatus& status) const {
  const PatternNodeId required = pattern_->order_by();
  if (required == kNoPatternNode) return 0.0;
  if (status.OrderOf(required) == required) return 0.0;
  const NodeMask all = (pattern_->NumNodes() >= 64)
                           ? ~NodeMask{0}
                           : ((NodeMask{1} << pattern_->NumNodes()) - 1);
  return cost_model_->Sort(estimates_->ClusterCard(all));
}

}  // namespace sjos
