#include "core/plan_builder.h"

namespace sjos {

Result<PhysicalPlan> BuildPlanFromMoves(const MoveGenerator& gen,
                                        const std::vector<Move>& moves) {
  const Pattern& pattern = gen.pattern();
  if (moves.size() != pattern.NumEdges()) {
    return Status::Internal("move sequence does not cover all pattern edges");
  }

  PhysicalPlan plan;
  struct Cluster {
    NodeMask mask = 0;
    int op = -1;  // -1: singleton whose scan has not been materialized yet
    PatternNodeId ordered_by = kNoPatternNode;
    PatternNodeId scan_node = kNoPatternNode;
  };
  std::vector<int> cluster_of(pattern.NumNodes());
  std::vector<Cluster> clusters(pattern.NumNodes());
  for (size_t i = 0; i < pattern.NumNodes(); ++i) {
    PatternNodeId id = static_cast<PatternNodeId>(i);
    cluster_of[i] = static_cast<int>(i);
    // Index scans are materialized lazily: a node reached by navigation
    // never gets one (unindexed nodes cannot).
    clusters[i] = Cluster{MaskOf(id), -1, id, id};
  }
  auto ensure_scan = [&](Cluster* cluster) {
    if (cluster->op < 0) {
      cluster->op = plan.AddIndexScan(cluster->scan_node);
    }
  };

  for (const Move& move : moves) {
    const Pattern::Edge& edge = gen.edges()[move.edge_index];
    Cluster& anc = clusters[static_cast<size_t>(
        cluster_of[static_cast<size_t>(edge.parent)])];
    Cluster& desc = clusters[static_cast<size_t>(
        cluster_of[static_cast<size_t>(edge.child)])];

    if (move.navigate) {
      ensure_scan(&anc);
      const int nav = plan.AddNavigate(edge.parent, edge.child, edge.axis,
                                       anc.op);
      const NodeMask navigated = desc.mask;
      anc.mask |= navigated;
      anc.op = nav;  // ordering unchanged: navigation preserves it
      const int anc_rep = cluster_of[static_cast<size_t>(edge.parent)];
      for (size_t i = 0; i < pattern.NumNodes(); ++i) {
        if (navigated & MaskOf(static_cast<PatternNodeId>(i))) {
          cluster_of[i] = anc_rep;
        }
      }
      continue;
    }

    ensure_scan(&anc);
    ensure_scan(&desc);
    int left = anc.op;
    int right = desc.op;
    if (anc.ordered_by != edge.parent) {
      if (move.sort_node != edge.parent) {
        return Status::Internal("move is missing the required ancestor sort");
      }
      left = plan.AddSort(edge.parent, left);
    }
    if (desc.ordered_by != edge.child) {
      if (move.sort_node != edge.child) {
        return Status::Internal("move is missing the required descendant sort");
      }
      right = plan.AddSort(edge.child, right);
    }
    const PlanOp op = move.stack_tree_anc ? PlanOp::kStackTreeAnc
                                          : PlanOp::kStackTreeDesc;
    int join = plan.AddJoin(op, edge.parent, edge.child, edge.axis, left, right);
    const NodeMask desc_mask = desc.mask;
    anc.mask |= desc_mask;
    anc.op = join;
    anc.ordered_by = move.stack_tree_anc ? edge.parent : edge.child;
    const int anc_rep = cluster_of[static_cast<size_t>(edge.parent)];
    for (size_t i = 0; i < pattern.NumNodes(); ++i) {
      if (desc_mask & MaskOf(static_cast<PatternNodeId>(i))) {
        cluster_of[i] = anc_rep;
      }
    }
  }

  Cluster& top = clusters[static_cast<size_t>(cluster_of[0])];
  int root = top.op;
  if (pattern.order_by() != kNoPatternNode &&
      top.ordered_by != pattern.order_by()) {
    root = plan.AddSort(pattern.order_by(), root);
  }
  plan.SetRoot(root);
  return plan;
}

}  // namespace sjos
