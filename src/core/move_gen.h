// Move enumeration and costing (Sec. 3.1.1 Def. 4, Sec. 3.2's lookahead and
// ubCost). Shared by all the status-based optimizers (DP, DPP, DPAP-*).
//
// Move semantics (see DESIGN.md Sec. 1.3): evaluating edge (p, c) joins the
// cluster holding p (ancestor side) with the cluster holding c (descendant
// side). Each input must be ordered by its endpoint; a single-node cluster
// always is, a multi-node cluster is iff its recorded order node matches.
// One mis-ordered input can be fixed by the move's optional sort; two
// mis-ordered inputs make the edge un-evaluable from this status — if that
// holds for every remaining edge, the status is a dead end (Def. 6).

#ifndef SJOS_CORE_MOVE_GEN_H_
#define SJOS_CORE_MOVE_GEN_H_

#include <vector>

#include "core/opt_status.h"
#include "estimate/composite.h"
#include "plan/cost_model.h"
#include "query/pattern.h"

namespace sjos {

/// Restrictions applied during enumeration.
struct MoveGenOptions {
  /// DPAP-LD (Sec. 3.3.2): only statuses with a single growing node — a
  /// move must keep at most one multi-node cluster.
  bool left_deep_only = false;
  /// Offer subtree navigation for every edge (an extension beyond the
  /// paper's join-only space). When false — the default, which keeps the
  /// search space exactly the paper's for fully indexed patterns —
  /// navigation is generated only where it is the sole option: edges
  /// ending in an unindexed singleton.
  bool navigation_everywhere = false;
};

/// Stateless move enumeration over one (pattern, estimates, cost model).
///
/// Three access paths per edge: Stack-Tree-Desc, Stack-Tree-Anc, and (when
/// the descendant endpoint is still an un-joined singleton) subtree
/// navigation. Navigation is the only path into unindexed nodes; joins are
/// never offered for edges whose endpoint is an unindexed singleton (no
/// candidate stream exists for it).
class MoveGenerator {
 public:
  MoveGenerator(const Pattern& pattern, const PatternEstimates& estimates,
                const CostModel& cost_model);

  const Pattern& pattern() const { return *pattern_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<Pattern::Edge>& edges() const { return edges_; }

  /// Appends all legal moves from `status` to `out` (both join algorithms
  /// per evaluable edge). Returns the number of alternatives costed — the
  /// unit of the "plans considered" statistic.
  size_t Enumerate(const OptStatus& status, const MoveGenOptions& options,
                   std::vector<Move>* out) const;

  /// The status reached by `move` from `status`.
  OptStatus Apply(const OptStatus& status, const Move& move) const;

  /// Lookahead Rule (Def. 6): true if `status` is non-final and has no
  /// legal move.
  bool IsDeadend(const OptStatus& status) const;

  /// ubCost (Sec. 3.2): estimate of the cost still needed to reach a final
  /// status — per remaining edge, a worst-case sort plus the dearer join
  /// algorithm on the current clusters. Used only to order DPP's priority
  /// list; optimality never depends on its tightness.
  double UbCost(const OptStatus& status) const;

  /// Extra sort charged to a final status whose result order disagrees
  /// with the pattern's explicit order-by (Sec. 3.1.2).
  double FinalOrderFixCost(const OptStatus& status) const;

 private:
  const Pattern* pattern_;
  const PatternEstimates* estimates_;
  const CostModel* cost_model_;
  std::vector<Pattern::Edge> edges_;
};

}  // namespace sjos

#endif  // SJOS_CORE_MOVE_GEN_H_
