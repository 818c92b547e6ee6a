#include "plan/plan_props.h"

#include <algorithm>

#include "common/str_util.h"

namespace sjos {

namespace {

/// Shared walk for validation and costing. `estimates`/`cost_model` may be
/// null for validate-only runs.
Result<PlanProps> Walk(const PhysicalPlan& plan, const Pattern& pattern,
                       const PatternEstimates* estimates,
                       const CostModel* cost_model) {
  if (plan.Empty()) return Status::InvalidArgument("empty plan");
  PlanProps props;
  props.ops.resize(plan.NumOps());
  props.left_deep = true;
  std::vector<bool> scanned(pattern.NumNodes(), false);
  std::vector<bool> edge_done(pattern.NumEdges(), false);
  const std::vector<Pattern::Edge> edges = pattern.Edges();

  // Nodes were appended children-first (AddJoin/AddSort demand existing
  // children), so a forward pass visits children before parents. Each op's
  // cumulative cost is its own cost plus its children's.
  for (size_t i = 0; i < plan.NumOps(); ++i) {
    const PlanNode& node = plan.At(static_cast<int>(i));
    OpProps& op = props.ops[i];
    switch (node.op) {
      case PlanOp::kIndexScan: {
        if (node.scan_node < 0 ||
            static_cast<size_t>(node.scan_node) >= pattern.NumNodes()) {
          return Status::InvalidArgument("scan of unknown pattern node");
        }
        if (!pattern.node(node.scan_node).indexed) {
          return Status::InvalidArgument(StrFormat(
              "pattern node %d is unindexed: it must be reached by "
              "navigation, not an index scan",
              node.scan_node));
        }
        if (scanned[static_cast<size_t>(node.scan_node)]) {
          return Status::InvalidArgument(StrFormat(
              "pattern node %d scanned more than once", node.scan_node));
        }
        scanned[static_cast<size_t>(node.scan_node)] = true;
        op.covered = MaskOf(node.scan_node);
        op.ordered_by = node.scan_node;  // index returns document order
        if (estimates != nullptr) {
          op.est_rows = estimates->NodeCard(node.scan_node);
          op.est_cost = cost_model->IndexAccess(op.est_rows);
        }
        break;
      }
      case PlanOp::kSort: {
        if (node.left < 0 || static_cast<size_t>(node.left) >= i) {
          return Status::InvalidArgument("sort input out of order");
        }
        const OpProps& in = props.ops[static_cast<size_t>(node.left)];
        if ((in.covered & MaskOf(node.sort_by)) == 0) {
          return Status::InvalidArgument(
              "sort by a pattern node the input does not cover");
        }
        op.covered = in.covered;
        op.ordered_by = node.sort_by;
        ++props.num_sorts;
        if (estimates != nullptr) {
          op.est_rows = in.est_rows;
          op.est_cost = in.est_cost + cost_model->Sort(in.est_rows);
        }
        break;
      }
      case PlanOp::kNavigate: {
        if (node.left < 0 || static_cast<size_t>(node.left) >= i) {
          return Status::InvalidArgument("navigate input out of order");
        }
        const OpProps& in = props.ops[static_cast<size_t>(node.left)];
        int edge_index = -1;
        for (size_t e = 0; e < edges.size(); ++e) {
          if (edges[e].parent == node.anc_node &&
              edges[e].child == node.desc_node) {
            edge_index = static_cast<int>(e);
            break;
          }
        }
        if (edge_index < 0) {
          return Status::InvalidArgument(
              "navigate does not match any pattern edge");
        }
        if (edge_done[static_cast<size_t>(edge_index)]) {
          return Status::InvalidArgument("pattern edge evaluated twice");
        }
        edge_done[static_cast<size_t>(edge_index)] = true;
        if (node.axis != edges[static_cast<size_t>(edge_index)].axis) {
          return Status::InvalidArgument("navigate axis disagrees with pattern");
        }
        if ((in.covered & MaskOf(node.anc_node)) == 0) {
          return Status::InvalidArgument(
              "navigate anchor not covered by the input");
        }
        if ((in.covered & MaskOf(node.desc_node)) != 0) {
          return Status::InvalidArgument(
              "navigate target already covered by the input");
        }
        // The navigated node counts as scanned (no separate index scan).
        if (scanned[static_cast<size_t>(node.desc_node)]) {
          return Status::InvalidArgument(
              "navigate target scanned elsewhere in the plan");
        }
        scanned[static_cast<size_t>(node.desc_node)] = true;
        op.covered = in.covered | MaskOf(node.desc_node);
        op.ordered_by = in.ordered_by;  // navigation preserves input order
        if (estimates != nullptr) {
          op.est_rows = estimates->ClusterCard(op.covered);
          op.est_cost =
              in.est_cost +
              cost_model->Navigate(in.est_rows,
                                   estimates->NodeSubtreeSize(node.anc_node),
                                   op.est_rows);
        }
        break;
      }
      case PlanOp::kStackTreeAnc:
      case PlanOp::kStackTreeDesc: {
        if (node.left < 0 || node.right < 0 ||
            static_cast<size_t>(node.left) >= i ||
            static_cast<size_t>(node.right) >= i) {
          return Status::InvalidArgument("join children out of order");
        }
        const OpProps& lhs = props.ops[static_cast<size_t>(node.left)];
        const OpProps& rhs = props.ops[static_cast<size_t>(node.right)];
        // Locate the pattern edge this join evaluates.
        int edge_index = -1;
        for (size_t e = 0; e < edges.size(); ++e) {
          if (edges[e].parent == node.anc_node &&
              edges[e].child == node.desc_node) {
            edge_index = static_cast<int>(e);
            break;
          }
        }
        if (edge_index < 0) {
          return Status::InvalidArgument(StrFormat(
              "join (%d,%d) does not match any pattern edge", node.anc_node,
              node.desc_node));
        }
        if (edge_done[static_cast<size_t>(edge_index)]) {
          return Status::InvalidArgument("pattern edge joined twice");
        }
        edge_done[static_cast<size_t>(edge_index)] = true;
        if (node.axis != edges[static_cast<size_t>(edge_index)].axis) {
          return Status::InvalidArgument("join axis disagrees with pattern");
        }
        if ((lhs.covered & MaskOf(node.anc_node)) == 0 ||
            (rhs.covered & MaskOf(node.desc_node)) == 0) {
          return Status::InvalidArgument(
              "join inputs do not cover their endpoints (left must cover "
              "the ancestor, right the descendant)");
        }
        if ((lhs.covered & rhs.covered) != 0) {
          return Status::InvalidArgument("join inputs overlap");
        }
        if (lhs.ordered_by != node.anc_node) {
          return Status::InvalidArgument(
              "ancestor input not ordered by the ancestor join node");
        }
        if (rhs.ordered_by != node.desc_node) {
          return Status::InvalidArgument(
              "descendant input not ordered by the descendant join node");
        }
        op.covered = lhs.covered | rhs.covered;
        op.ordered_by = node.op == PlanOp::kStackTreeAnc ? node.anc_node
                                                         : node.desc_node;
        ++props.num_joins;
        // Left-deep in the classical sense: the non-growing input is a
        // base candidate list (possibly re-sorted).
        auto is_base = [&](int child) {
          const PlanNode& c = plan.At(child);
          if (c.op == PlanOp::kIndexScan) return true;
          if (c.op == PlanOp::kSort) {
            return plan.At(c.left).op == PlanOp::kIndexScan;
          }
          return false;
        };
        if (!is_base(node.left) && !is_base(node.right)) {
          props.left_deep = false;
        }
        if (estimates != nullptr) {
          op.est_rows = estimates->ClusterCard(op.covered);
          double own =
              node.op == PlanOp::kStackTreeAnc
                  ? cost_model->StackTreeAnc(op.est_rows, lhs.est_rows)
                  : cost_model->StackTreeDesc(lhs.est_rows, op.est_rows);
          op.est_cost = lhs.est_cost + rhs.est_cost + own;
        }
        break;
      }
    }
  }

  const OpProps& root = props.ops[static_cast<size_t>(plan.root())];
  const NodeMask all =
      pattern.NumNodes() >= 64
          ? ~NodeMask{0}
          : ((NodeMask{1} << pattern.NumNodes()) - 1);
  if (root.covered != all) {
    return Status::InvalidArgument("plan root does not cover the pattern");
  }
  for (size_t e = 0; e < edge_done.size(); ++e) {
    if (!edge_done[e]) {
      return Status::InvalidArgument(StrFormat("pattern edge %zu never joined", e));
    }
  }
  props.fully_pipelined = props.num_sorts == 0;
  props.total_cost = root.est_cost;
  return props;
}

}  // namespace

Status ValidatePlan(const PhysicalPlan& plan, const Pattern& pattern) {
  Result<PlanProps> props = Walk(plan, pattern, nullptr, nullptr);
  return props.ok() ? Status::OK() : props.status();
}

Result<PlanProps> ComputePlanProps(const PhysicalPlan& plan,
                                   const Pattern& pattern,
                                   const PatternEstimates& estimates,
                                   const CostModel& cost_model) {
  return Walk(plan, pattern, &estimates, &cost_model);
}

void AnnotatePlanEstimates(PhysicalPlan* plan, const PlanProps& props) {
  for (size_t i = 0; i < plan->NumOps(); ++i) {
    plan->SetEstRows(static_cast<int>(i), props.ops[i].est_rows);
  }
}

double QError(double est_rows, double actual_rows) {
  const double est = est_rows < 1.0 ? 1.0 : est_rows;
  const double act = actual_rows < 1.0 ? 1.0 : actual_rows;
  return est > act ? est / act : act / est;
}

double MaxJoinQError(const PhysicalPlan& plan,
                     const std::vector<OpStats>& op_stats) {
  double max_q = 0.0;
  for (size_t i = 0; i < plan.NumOps() && i < op_stats.size(); ++i) {
    const PlanNode& node = plan.At(static_cast<int>(i));
    const bool is_join = node.op == PlanOp::kStackTreeAnc ||
                         node.op == PlanOp::kStackTreeDesc;
    if (!is_join || node.est_rows < 0.0 || op_stats[i].batches == 0) continue;
    max_q = std::max(
        max_q, QError(node.est_rows, static_cast<double>(op_stats[i].rows)));
  }
  return max_q;
}

}  // namespace sjos
