// Extension bench (the paper's future work, Sec. 6): the holistic twig
// join of [Bruno et al., SIGMOD 2002] versus the optimizer's binary
// structural join plans, across the full workload and folding factors.
//
// The interesting shape: the holistic join needs no join-order decisions
// (optimization is free) and avoids large binary intermediates on deep
// paths, while the optimized binary plans win when one edge is highly
// selective and can shrink everything early. This is exactly the
// trade-off the paper's future-work section anticipates feeding into the
// cost-based framework as "just another access method with a cost model".

#include <cstdio>

#include "bench_util.h"
#include "exec/twig_join.h"

using namespace sjos;
using namespace sjos::bench;

int main(int argc, char** argv) {
  const ExecLimits limits = ParseLimitFlags(&argc, argv);
  std::printf(
      "Holistic twig join (PathStack + merge) vs optimized binary "
      "structural join plans (DPP)\n\n");

  const std::vector<int> widths = {14, 6, 12, 12, 12, 12, 12};
  PrintRule(widths);
  PrintRow(widths, {"Query", "fold", "DPP opt(ms)", "DPP eval", "twig eval",
                    "path rows", "results"});
  PrintRule(widths);

  for (const BenchQuery& query : PaperWorkload()) {
    for (uint32_t fold : {1u, 10u}) {
      // Keep the big data sets unfolded: Mbench/DBLP are already at the
      // paper's sizes and fold 10 would be minutes per row.
      if (query.dataset != "Pers" && fold > 1) continue;
      DatasetScale scale;
      scale.fold = fold;
      DatasetHandle dataset(query.dataset, scale);
      QueryEnv env(dataset, query.pattern);

      auto dpp = MakeDppOptimizer();
      Measurement binary = MeasureOptimizer(env, dpp.get(),
                                            /*eval_row_budget=*/0, limits);

      TwigJoinStats twig_stats;
      // Warm-up + timed run, mirroring the binary side's policy.
      Result<TupleSet> warm = TwigJoin(env.db(), env.pattern(), &twig_stats);
      SJOS_CHECK(warm.ok(), warm.status().ToString().c_str());
      Result<TupleSet> twig = TwigJoin(env.db(), env.pattern(), &twig_stats);
      SJOS_CHECK(twig.ok(), twig.status().ToString().c_str());

      PrintRow(widths,
               {query.id, std::to_string(fold), Ms(binary.opt_ms),
                Ms(binary.eval_ms), Ms(twig_stats.wall_ms),
                std::to_string(twig_stats.path_solutions),
                std::to_string(twig.value().size())});
    }
  }
  PrintRule(widths);
  return 0;
}
