// Reproduces Table 2: optimization time and number of alternative plans
// considered for query Q.Pers.3.d under DP, DPP' (DPP without the
// Lookahead Rule), DPP, DPAP-EB, DPAP-LD, and FP.
//
// Expected shape (paper Sec. 4.2.2): plans-considered ordering
// DP > DPP' > DPP > DPAP-EB > DPAP-LD > FP, with optimization time
// roughly proportional to the number of plans considered (the paper
// measured 396 / 122 / 71 / 57 / 39 / 14 plans).

#include <cstdio>

#include "bench_util.h"

using namespace sjos;
using namespace sjos::bench;

int main(int argc, char** argv) {
  JsonReport report("table2", ParseJsonFlag(&argc, argv));
  const ExecLimits limits = ParseLimitFlags(&argc, argv);
  std::printf(
      "Table 2: Optimization Time and Number of Alternative Plans "
      "Considered, Query Q.Pers.3.d\n\n");

  BenchQuery query = std::move(FindQuery("Q.Pers.3.d")).value();
  DatasetHandle dataset("Pers", DatasetScale{});
  QueryEnv env(dataset, query.pattern);

  std::vector<std::unique_ptr<Optimizer>> optimizers;
  optimizers.push_back(MakeDpOptimizer());
  optimizers.push_back(MakeDppOptimizer(/*lookahead=*/false));  // DPP'
  optimizers.push_back(MakeDppOptimizer(/*lookahead=*/true));
  optimizers.push_back(
      MakeDpapEbOptimizer(static_cast<uint32_t>(query.pattern.NumEdges())));
  optimizers.push_back(MakeDpapLdOptimizer());
  optimizers.push_back(MakeFpOptimizer());

  std::vector<Measurement> results;
  for (const auto& optimizer : optimizers) {
    results.push_back(MeasureOptimizer(env, optimizer.get(),
                                       /*eval_row_budget=*/0, limits));
    report.Add(query.id, results.back());
  }

  const std::vector<int> widths = {12, 8, 8, 8, 8, 8, 8};
  PrintRule(widths);
  PrintRow(widths, {"", "DP", "DPP'", "DPP", "DPAP-EB", "DPAP-LD", "FP"});
  PrintRule(widths);
  std::vector<std::string> time_row = {"OpTime(ms)"};
  std::vector<std::string> plans_row = {"# of Plans"};
  for (const Measurement& m : results) {
    time_row.push_back(Ms(m.opt_ms));
    plans_row.push_back(std::to_string(m.plans_considered));
  }
  PrintRow(widths, time_row);
  PrintRow(widths, plans_row);
  PrintRule(widths);

  std::printf(
      "\nAll six runs pick these plan costs (DP/DPP'/DPP must agree):\n");
  for (const Measurement& m : results) {
    std::printf("  %-8s modelled cost %.1f  eval %s ms  plan %s\n",
                m.algo.c_str(), m.modelled_cost, Ms(m.eval_ms).c_str(),
                m.signature.c_str());
  }
  return report.Write() ? 0 : 1;
}
