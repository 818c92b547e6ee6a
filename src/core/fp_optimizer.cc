// FP — the Fully-Pipelined optimizer (Sec. 3.4, Thm. 3.1). Only
// non-blocking plans are considered: by picking the join algorithm per
// edge, intermediate results can always be kept ordered by the node the
// next join needs, so no intermediate sort (blocking point) ever appears.
//
// For each candidate result-order node r, the pattern is "picked up" at r:
// r's neighbors root the sub-pattern trees, each of which is recursively
// planned to produce results ordered by its own root. The sub-plans are
// then joined with r's candidate list in the cheapest order, found by a DP
// over subsets of r's neighbors. Memoized on (subtree root, blocked
// neighbor), the classic re-rooting decomposition. The chosen plan is the
// CHEAPEST fully-pipelined plan — the guarantee the paper proves.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/opt_status.h"
#include "core/optimizer.h"

namespace sjos {

namespace {

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

    double children_cost = 0.0;
    for (PatternNodeId u : neighbors) {
      const SubPlan& sub = Solve(u, r);
      children_cost += sub.cost;
      plan.mask |= sub.mask;
    }
    ++stats_.statuses_expanded;

    // Subset DP over the join order of the sub-pattern plans with r. A
    // step's cost depends only on the set S already joined, so best_[S]
    // (the cheapest cost of joining S first, summed in join order) is the
    // minimum over the neighbor joined last. order_ row S keeps, among
    // the cheapest, the lexicographically smallest order of S.
    std::sort(neighbors.begin(), neighbors.end());
    const size_t k = neighbors.size();
    const uint32_t full = (uint32_t{1} << k) - 1;
    best_.resize(size_t{full} + 1);
    joined_.resize(size_t{full} + 1);
    order_.resize((size_t{full} + 1) * k);
    best_[0] = 0.0;
    joined_[0] = MaskOf(r);
    for (uint32_t s = 1; s <= full; ++s) {
      const int low = std::countr_zero(s);
      joined_[s] = joined_[s & (s - 1)] |
                   memo_.at(MemoKey(neighbors[low], r)).mask;
      const size_t len = static_cast<size_t>(std::popcount(s));
      uint8_t* row = &order_[s * k];
      bool found = false;
      for (uint32_t rest = s; rest != 0; rest &= rest - 1) {
        const int last = std::countr_zero(rest);
        const uint32_t prev = s & ~(uint32_t{1} << last);
        const NodeMask sub_mask = joined_[s] & ~joined_[prev];
        const double cost = best_[prev] + JoinStepCost(r, neighbors[last],
                                                       joined_[prev],
                                                       sub_mask);
        const uint8_t* prefix = &order_[prev * k];
        if (found) {
          if (cost > best_[s]) continue;
          if (cost == best_[s]) {
            const int c = std::memcmp(prefix, row, len - 1);
            if (c > 0 || (c == 0 && last > row[len - 1])) continue;
          }
        }
        found = true;
        best_[s] = cost;
        std::memcpy(row, prefix, len - 1);
        row[len - 1] = static_cast<uint8_t>(last);
      }
    }
    stats_.plans_considered += k;  // one complete order per last neighbor
    for (size_t i = 0; i < k; ++i) {
      plan.perm.push_back(neighbors[order_[full * k + i]]);
    }
    plan.cost = children_cost + best_[full];
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
  // Subset-DP tables, indexed by a set of sorted-neighbor positions;
  // reused across sub-problems and written before they are read.
  std::vector<double> best_;
  std::vector<NodeMask> joined_;
  std::vector<uint8_t> order_;  // row S: |S| positions, stride k
};

}  // namespace

std::unique_ptr<Optimizer> MakeFpOptimizer() {
  return std::make_unique<FpOptimizer>();
}

}  // namespace sjos
