// FP — the Fully-Pipelined optimizer (Sec. 3.4, Thm. 3.1). Only
// non-blocking plans are considered: by picking the join algorithm per
// edge, intermediate results can always be kept ordered by the node the
// next join needs, so no intermediate sort (blocking point) ever appears.
//
// For each candidate result-order node r, the pattern is "picked up" at r:
// r's neighbors root the sub-pattern trees, each of which is recursively
// planned to produce results ordered by its own root. The sub-plans are
// then joined with r's candidate list in every possible order, keeping the
// cheapest permutation. Memoized on (subtree root, blocked neighbor), the
// classic re-rooting decomposition. The chosen plan is the CHEAPEST
// fully-pipelined plan — the guarantee the paper proves.

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/opt_status.h"
#include "core/optimizer.h"

namespace sjos {

namespace {

/// Neighbor fan-out above which permutation enumeration is refused.
constexpr size_t kMaxFanout = 8;

class FpOptimizer : public Optimizer {
 public:
  const char* name() const override { return "FP"; }

 private:
  Status Search(const OptimizeContext& ctx, const Timer& /*timer*/,
                OptimizeResult* out) override {
    for (size_t i = 0; i < ctx.pattern->NumNodes(); ++i) {
      if (!ctx.pattern->node(static_cast<PatternNodeId>(i)).indexed) {
        return Status::Unsupported(
            "FP requires index streams for every pattern node (unindexed "
            "nodes need navigation, which FP does not plan yet)");
      }
    }
    ctx_ = &ctx;
    memo_.clear();
    stats_ = OptimizerStats{};
    fanout_error_ = Status::OK();

    const Pattern& pattern = *ctx.pattern;
    // Candidate result orders: the explicit order-by node if given,
    // otherwise every pattern node (Thm. 3.1: any order is reachable).
    std::vector<PatternNodeId> roots;
    if (pattern.order_by() != kNoPatternNode) {
      roots.push_back(pattern.order_by());
    } else {
      for (size_t i = 0; i < pattern.NumNodes(); ++i) {
        roots.push_back(static_cast<PatternNodeId>(i));
      }
    }

    PatternNodeId best_root = kNoPatternNode;
    double best_cost = 0.0;
    for (PatternNodeId r : roots) {
      const SubPlan& sub = Solve(r, kNoPatternNode);
      if (!fanout_error_.ok()) return fanout_error_;
      if (best_root == kNoPatternNode || sub.cost < best_cost) {
        best_root = r;
        best_cost = sub.cost;
      }
    }

    PhysicalPlan plan;
    plan.SetRoot(BuildPlan(&plan, best_root, kNoPatternNode));
    for (size_t i = 0; i < plan.NumOps(); ++i) {
      SJOS_CHECK(plan.At(static_cast<int>(i)).op != PlanOp::kSort,
                 "FP produced a blocking plan");
    }
    out->plan = std::move(plan);
    out->search_cost = best_cost;
    out->stats = stats_;
    return Status::OK();
  }

  /// Best fully-pipelined plan for the component of `r` obtained by
  /// removing the edge towards `blocked`, with output ordered by `r`.
  struct SubPlan {
    double cost = 0.0;
    NodeMask mask = 0;
    std::vector<PatternNodeId> perm;  // neighbor join order
  };

  static int MemoKey(PatternNodeId r, PatternNodeId blocked) {
    return r * (static_cast<int>(kMaxPatternNodes) + 1) + (blocked + 1);
  }

  const SubPlan& Solve(PatternNodeId r, PatternNodeId blocked) {
    const int key = MemoKey(r, blocked);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    const Pattern& pattern = *ctx_->pattern;
    SubPlan plan;
    plan.mask = MaskOf(r);

    std::vector<PatternNodeId> neighbors;
    for (PatternNodeId u : pattern.NeighborsOf(r)) {
      if (u != blocked) neighbors.push_back(u);
    }
    ++stats_.statuses_generated;  // one sub-problem

    if (neighbors.empty()) {
      return memo_.emplace(key, std::move(plan)).first->second;
    }
    if (neighbors.size() > kMaxFanout) {
      fanout_error_ = Status::Unsupported(
          "FP permutation enumeration limited to fan-out 8");
      return memo_.emplace(key, std::move(plan)).first->second;
    }

    double children_cost = 0.0;
    for (PatternNodeId u : neighbors) {
      const SubPlan& sub = Solve(u, r);
      children_cost += sub.cost;
      plan.mask |= sub.mask;
    }
    ++stats_.statuses_expanded;

    // Enumerate join orders of the sub-pattern plans with r.
    std::vector<PatternNodeId> perm = neighbors;
    std::sort(perm.begin(), perm.end());
    double best = -1.0;
    do {
      double cost = 0.0;
      NodeMask current = MaskOf(r);
      for (PatternNodeId u : perm) {
        const SubPlan& sub = memo_.at(MemoKey(u, r));
        cost += JoinStepCost(r, u, current, sub.mask);
        current |= sub.mask;
      }
      ++stats_.plans_considered;
      if (best < 0.0 || cost < best) {
        best = cost;
        plan.perm = perm;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));

    plan.cost = children_cost + best;
    return memo_.emplace(key, std::move(plan)).first->second;
  }

  /// Cost of joining the current cluster (contains r, ordered by r) with
  /// the sub-pattern of neighbor u (ordered by u), keeping output ordered
  /// by r: Stack-Tree-Anc when r is the ancestor endpoint, Stack-Tree-Desc
  /// when r is the descendant endpoint.
  double JoinStepCost(PatternNodeId r, PatternNodeId u, NodeMask current,
                      NodeMask sub_mask) const {
    const Pattern& pattern = *ctx_->pattern;
    const PatternEstimates& est = *ctx_->estimates;
    const CostModel& cm = *ctx_->cost_model;
    if (pattern.node(u).parent == r) {
      // r is the ancestor: output ordered by ancestor -> STA.
      return cm.StackTreeAnc(est.ClusterCard(current | sub_mask),
                             est.ClusterCard(current));
    }
    // u is r's pattern parent: ancestor side is the sub-pattern.
    return cm.StackTreeDesc(est.ClusterCard(sub_mask),
                            est.ClusterCard(current | sub_mask));
  }

  /// Emits the memoized choice as plan operators; returns the op index
  /// producing the component of `r` (ordered by r).
  int BuildPlan(PhysicalPlan* plan, PatternNodeId r, PatternNodeId blocked) {
    const Pattern& pattern = *ctx_->pattern;
    const SubPlan& sub = memo_.at(MemoKey(r, blocked));
    int current = plan->AddIndexScan(r);
    for (PatternNodeId u : sub.perm) {
      int child_op = BuildPlan(plan, u, r);
      if (pattern.node(u).parent == r) {
        current = plan->AddJoin(PlanOp::kStackTreeAnc, r, u,
                                pattern.node(u).axis, current, child_op);
      } else {
        current = plan->AddJoin(PlanOp::kStackTreeDesc, u, r,
                                pattern.node(r).axis, child_op, current);
      }
    }
    return current;
  }

  const OptimizeContext* ctx_ = nullptr;
  std::unordered_map<int, SubPlan> memo_;
  OptimizerStats stats_;
  Status fanout_error_;
};

}  // namespace

std::unique_ptr<Optimizer> MakeFpOptimizer() {
  return std::make_unique<FpOptimizer>();
}

}  // namespace sjos
