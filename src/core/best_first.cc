// Best-first search behind DPP (Sec. 3.2) and the DPAP variants (Sec. 3.3).
// One class serves all four; its options select the pruning rules:
//
//   * Expanding Rule — always expand the un-expanded status with lowest
//     Cost + ubCost (priority list).
//   * Pruning Rule — a status is dead once its Cost reaches the cost of
//     the best complete plan found (MinCost); dead statuses are dropped.
//     A status is also dropped when a cheaper path to the same status key
//     is already known.
//   * Lookahead Rule — (optional) never generate dead-end statuses.
//
// DPAP-EB layers an expansion bound T_e per level: costly sub-plans rarely
// grow into the optimum, so bounding per-level expansion keeps the cheap
// ones and discards the tail. DPAP-LD restricts move generation to
// left-deep statuses (one growing node) — the relational rule of thumb,
// which the paper shows misses the optimum badly on larger data sets.
// DPP' (Table 2) is DPP with lookahead disabled.

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/move_gen.h"
#include "core/opt_status.h"
#include "core/optimizer.h"
#include "core/plan_builder.h"

namespace sjos {

namespace {

/// What distinguishes DPP / DPP' / DPAP-EB / DPAP-LD.
struct BestFirstOptions {
  bool lookahead = true;         // Lookahead Rule on generation
  uint32_t expansion_bound = 0;  // T_e; 0 = unlimited (DPP)
  MoveGenOptions move_gen;       // DPAP-LD's left-deep restriction, nav
};

/// Arena record for one discovered status. `cost` is the best-known Cost;
/// a record is superseded (and its queue entries go stale) when a cheaper
/// path to the same key is found.
struct NodeRec {
  OptStatus status;
  StatusKey key;  // cached: hashing the status is on the pop hot path
  double cost = 0.0;
  double ub = 0.0;
  int parent = -1;  // arena index
  Move via;
};

struct QueueEntry {
  double priority;  // Cost + ubCost
  int arena_index;
  bool operator>(const QueueEntry& other) const {
    return priority > other.priority;
  }
};

class BestFirstOptimizer : public Optimizer {
 public:
  BestFirstOptimizer(const char* name, BestFirstOptions options)
      : name_(name), options_(options) {}

  const char* name() const override { return name_; }

 private:
  /// Fails with NotFound when the restricted space contains no complete
  /// plan (possible only under aggressive restrictions combined with tiny
  /// expansion bounds).
  Status Search(const OptimizeContext& ctx, const Timer& timer,
                OptimizeResult* out) override;

  const char* name_;
  BestFirstOptions options_;
};

Status BestFirstOptimizer::Search(const OptimizeContext& ctx,
                                  const Timer& timer, OptimizeResult* out) {
  MoveGenerator gen(*ctx.pattern, *ctx.estimates, *ctx.cost_model);
  const size_t num_edges = gen.num_edges();
  OptimizerStats& stats = out->stats;

  std::vector<NodeRec> arena;
  std::unordered_map<StatusKey, int, StatusKeyHash> best_index;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  std::vector<uint32_t> expanded_at(num_edges + 1, 0);

  // MinCost: cost of the best complete plan found (incl. order fix).
  double min_cost = 0.0;
  int best_final = -1;

  OptStatus start = OptStatus::Start(*ctx.pattern);
  arena.push_back(NodeRec{start, start.Key(), 0.0, gen.UbCost(start), -1, {}});
  best_index.emplace(arena[0].key, 0);
  queue.push(QueueEntry{arena[0].ub, 0});
  ++stats.statuses_generated;

  std::vector<Move> moves;
  uint64_t pops = 0;
  while (!queue.empty()) {
    // Deadline poll every 64 pops (the best-first analogue of DP's
    // per-level check).
    if ((pops++ & 63) == 0) SJOS_RETURN_IF_ERROR(PollDeadline(ctx, timer));
    const QueueEntry top = queue.top();
    queue.pop();
    const NodeRec rec = arena[static_cast<size_t>(top.arena_index)];
    // Stale queue entry: a cheaper path to this key exists.
    auto idx_it = best_index.find(rec.key);
    if (idx_it == best_index.end() || idx_it->second != top.arena_index) {
      continue;
    }
    // Pruning Rule: dead once a complete plan at or below this cost exists.
    if (best_final >= 0 && rec.cost >= min_cost) continue;
    if (rec.status.IsFinal(num_edges)) continue;  // finals are not expanded

    // DPAP-EB Expansion Bound: statuses at a saturated level are dropped.
    const size_t level = static_cast<size_t>(rec.status.Level());
    if (options_.expansion_bound > 0 &&
        expanded_at[level] >= options_.expansion_bound) {
      continue;
    }
    ++expanded_at[level];
    ++stats.statuses_expanded;

    moves.clear();
    gen.Enumerate(rec.status, options_.move_gen, &moves);
    for (const Move& move : moves) {
      OptStatus next = gen.Apply(rec.status, move);
      const double cost = rec.cost + move.cost;
      // Pruning Rule applied at generation time too.
      if (best_final >= 0 && cost >= min_cost) continue;
      const bool is_final = next.IsFinal(num_edges);
      // Lookahead Rule: never generate dead ends. Such moves are filtered
      // before the partial plan counts as "considered" — the paper's
      // DPP vs DPP' comparison (Table 2) hinges on this.
      if (!is_final && options_.lookahead && gen.IsDeadend(next)) continue;
      ++stats.statuses_generated;
      ++stats.plans_considered;

      StatusKey key = next.Key();
      auto it = best_index.find(key);
      if (it != best_index.end() &&
          arena[static_cast<size_t>(it->second)].cost <= cost) {
        continue;  // cheaper path already known
      }
      const int index = static_cast<int>(arena.size());
      arena.push_back(NodeRec{next, key, cost,
                              is_final ? 0.0 : gen.UbCost(next),
                              top.arena_index, move});
      if (it != best_index.end()) {
        it->second = index;
      } else {
        best_index.emplace(key, index);
      }
      if (is_final) {
        const double total = cost + gen.FinalOrderFixCost(next);
        if (best_final < 0 || total < min_cost) {
          best_final = index;
          min_cost = total;
        }
      } else {
        queue.push(QueueEntry{cost + arena[static_cast<size_t>(index)].ub,
                              index});
      }
    }
  }

  if (best_final < 0) {
    return Status::NotFound(StrFormat(
        "no complete plan found in the restricted search space (bound=%u, "
        "left-deep=%d)",
        options_.expansion_bound, options_.move_gen.left_deep_only ? 1 : 0));
  }

  std::vector<Move> chosen(num_edges);
  int at = best_final;
  for (size_t lv = num_edges; lv > 0; --lv) {
    const NodeRec& rec = arena[static_cast<size_t>(at)];
    chosen[lv - 1] = rec.via;
    at = rec.parent;
  }

  Result<PhysicalPlan> plan = BuildPlanFromMoves(gen, chosen);
  if (!plan.ok()) return plan.status();
  out->plan = std::move(plan).value();
  out->search_cost = min_cost;
  return Status::OK();
}

}  // namespace

std::unique_ptr<Optimizer> MakeDppOptimizer(bool lookahead) {
  BestFirstOptions options;
  options.lookahead = lookahead;
  return std::make_unique<BestFirstOptimizer>(lookahead ? "DPP" : "DPP'",
                                              options);
}

std::unique_ptr<Optimizer> MakeDppNavOptimizer() {
  BestFirstOptions options;
  options.move_gen.navigation_everywhere = true;
  return std::make_unique<BestFirstOptimizer>("DPP+nav", options);
}

std::unique_ptr<Optimizer> MakeDpapEbOptimizer(uint32_t expansion_bound) {
  BestFirstOptions options;
  options.expansion_bound = std::max<uint32_t>(1, expansion_bound);
  return std::make_unique<BestFirstOptimizer>("DPAP-EB", options);
}

std::unique_ptr<Optimizer> MakeDpapLdOptimizer() {
  BestFirstOptions options;
  options.move_gen.left_deep_only = true;
  return std::make_unique<BestFirstOptimizer>("DPAP-LD", options);
}

}  // namespace sjos
