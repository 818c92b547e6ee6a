// Exhaustive Dynamic Programming (Sec. 3.1): level-synchronous search over
// the status graph. No status on level k is generated before every status
// on level k-1 holds its best plan; duplicate generations of one status
// keep only the cheapest. Dead ends ARE generated (no lookahead), and the
// same plan can be re-derived via different branches — the inefficiencies
// the paper charges to DP.

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/move_gen.h"
#include "core/opt_status.h"
#include "core/optimizer.h"
#include "core/plan_builder.h"

namespace sjos {

namespace {

class DpOptimizer : public Optimizer {
 public:
  const char* name() const override { return "DP"; }

 private:
  Status Search(const OptimizeContext& ctx, const Timer& timer,
                OptimizeResult* out) override {
    MoveGenerator gen(*ctx.pattern, *ctx.estimates, *ctx.cost_model);
    const size_t num_edges = gen.num_edges();
    OptimizerStats& stats = out->stats;

    struct Entry {
      OptStatus status;
      double cost = 0.0;
      // Back pointer: index into the previous level plus the move taken.
      int parent = -1;
      Move via;
    };

    std::vector<std::vector<Entry>> levels(num_edges + 1);
    levels[0].push_back(Entry{OptStatus::Start(*ctx.pattern), 0.0, -1, {}});
    ++stats.statuses_generated;

    std::vector<Move> moves;
    for (size_t lv = 0; lv < num_edges; ++lv) {
      std::unordered_map<StatusKey, size_t, StatusKeyHash> index;
      for (size_t i = 0; i < levels[lv].size(); ++i) {
        // Deadline poll at each level start and every 64 expansions —
        // a level of a large pattern can hold thousands of statuses.
        if ((i & 63) == 0) SJOS_RETURN_IF_ERROR(PollDeadline(ctx, timer));
        const Entry& entry = levels[lv][i];
        moves.clear();
        stats.plans_considered += gen.Enumerate(entry.status, {}, &moves);
        ++stats.statuses_expanded;
        for (const Move& move : moves) {
          OptStatus next = gen.Apply(entry.status, move);
          const double cost = entry.cost + move.cost;
          ++stats.statuses_generated;
          StatusKey key = next.Key();
          auto it = index.find(key);
          if (it == index.end()) {
            index.emplace(key, levels[lv + 1].size());
            levels[lv + 1].push_back(
                Entry{next, cost, static_cast<int>(i), move});
          } else if (cost < levels[lv + 1][it->second].cost) {
            levels[lv + 1][it->second] =
                Entry{next, cost, static_cast<int>(i), move};
          }
        }
      }
    }

    // Compare final statuses, charging the order-fix sort where the
    // produced order disagrees with an explicit order-by.
    int best = -1;
    double best_cost = 0.0;
    for (size_t i = 0; i < levels[num_edges].size(); ++i) {
      const Entry& entry = levels[num_edges][i];
      const double total = entry.cost + gen.FinalOrderFixCost(entry.status);
      if (best < 0 || total < best_cost) {
        best = static_cast<int>(i);
        best_cost = total;
      }
    }
    if (best < 0) {
      return Status::Internal("DP found no final status");
    }

    // Backtrack the winning move sequence.
    std::vector<Move> chosen(num_edges);
    int at = best;
    for (size_t lv = num_edges; lv > 0; --lv) {
      const Entry& entry = levels[lv][static_cast<size_t>(at)];
      chosen[lv - 1] = entry.via;
      at = entry.parent;
    }

    Result<PhysicalPlan> plan = BuildPlanFromMoves(gen, chosen);
    if (!plan.ok()) return plan.status();
    out->plan = std::move(plan).value();
    out->search_cost = best_cost;
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Optimizer> MakeDpOptimizer() {
  return std::make_unique<DpOptimizer>();
}

}  // namespace sjos
