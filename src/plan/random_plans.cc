#include "plan/random_plans.h"

#include <vector>

#include "plan/plan_props.h"

namespace sjos {

Result<PhysicalPlan> RandomPlan(const Pattern& pattern, Rng* rng) {
  SJOS_RETURN_IF_ERROR(pattern.Validate());
  if (pattern.NumNodes() > 64) {
    return Status::Unsupported("patterns with more than 64 nodes");
  }
  for (size_t i = 0; i < pattern.NumNodes(); ++i) {
    if (!pattern.node(static_cast<PatternNodeId>(i)).indexed) {
      return Status::Unsupported(
          "random join plans require index streams for every node");
    }
  }

  PhysicalPlan plan;
  // Per-cluster state, keyed by a representative pattern node (union-find
  // style with explicit merge).
  struct Cluster {
    NodeMask mask = 0;
    int op = -1;                                // plan node producing it
    PatternNodeId ordered_by = kNoPatternNode;  // physical output order
  };
  std::vector<int> cluster_of(pattern.NumNodes());
  std::vector<Cluster> clusters(pattern.NumNodes());
  for (size_t i = 0; i < pattern.NumNodes(); ++i) {
    PatternNodeId id = static_cast<PatternNodeId>(i);
    cluster_of[i] = static_cast<int>(i);
    clusters[i].mask = MaskOf(id);
    clusters[i].op = plan.AddIndexScan(id);
    clusters[i].ordered_by = id;
  }

  std::vector<Pattern::Edge> pending = pattern.Edges();
  rng->Shuffle(&pending);

  for (const Pattern::Edge& edge : pending) {
    Cluster& anc = clusters[static_cast<size_t>(
        cluster_of[static_cast<size_t>(edge.parent)])];
    Cluster& desc = clusters[static_cast<size_t>(
        cluster_of[static_cast<size_t>(edge.child)])];
    int left = anc.op;
    int right = desc.op;
    if (anc.ordered_by != edge.parent) {
      left = plan.AddSort(edge.parent, left);
    }
    if (desc.ordered_by != edge.child) {
      right = plan.AddSort(edge.child, right);
    }
    PlanOp op =
        rng->NextBool(0.5) ? PlanOp::kStackTreeAnc : PlanOp::kStackTreeDesc;
    int join =
        plan.AddJoin(op, edge.parent, edge.child, edge.axis, left, right);
    // Merge desc's cluster into anc's.
    anc.mask |= desc.mask;
    anc.op = join;
    anc.ordered_by =
        op == PlanOp::kStackTreeAnc ? edge.parent : edge.child;
    int anc_rep = cluster_of[static_cast<size_t>(edge.parent)];
    for (size_t i = 0; i < pattern.NumNodes(); ++i) {
      if (desc.mask & MaskOf(static_cast<PatternNodeId>(i))) {
        cluster_of[i] = anc_rep;
      }
    }
  }

  plan.SetRoot(clusters[static_cast<size_t>(cluster_of[0])].op);
  SJOS_RETURN_IF_ERROR(ValidatePlan(plan, pattern));
  return plan;
}

Result<WorstPlanResult> WorstOfRandomPlans(const Pattern& pattern,
                                           const PatternEstimates& estimates,
                                           const CostModel& cost_model,
                                           size_t samples, uint64_t seed) {
  if (samples == 0) return Status::InvalidArgument("samples must be >= 1");
  Rng rng(seed);
  WorstPlanResult worst;
  bool have = false;
  for (size_t s = 0; s < samples; ++s) {
    Result<PhysicalPlan> plan = RandomPlan(pattern, &rng);
    if (!plan.ok()) return plan.status();
    Result<PlanProps> props =
        ComputePlanProps(plan.value(), pattern, estimates, cost_model);
    if (!props.ok()) return props.status();
    if (!have || props.value().total_cost > worst.modelled_cost) {
      worst.plan = std::move(plan).value();
      AnnotatePlanEstimates(&worst.plan, props.value());
      worst.modelled_cost = props.value().total_cost;
      have = true;
    }
  }
  return worst;
}

}  // namespace sjos
