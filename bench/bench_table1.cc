// Reproduces Table 1 of Wu/Patel/Jagadish (ICDE 2003): query optimization
// time and query plan evaluation time (ms here; the paper printed seconds
// on a 500 MHz Pentium III) for the eight workload queries under the five
// algorithms, plus the worst-of-random "Bad Plan" baseline.
//
// Expected shape (paper Sec. 4.2): DP and DPP pick identical optimal plans
// with DPP far cheaper to run; DPAP-EB and FP come close to optimal;
// DPAP-LD is noticeably worse on some queries; the bad plan is 10x-10,000x
// slower than the optimized plans; optimization-time ordering is
// DP > DPP > DPAP-EB > DPAP-LD > FP.

#include <cstdio>
#include <map>

#include "bench_util.h"

using namespace sjos;
using namespace sjos::bench;

namespace {

constexpr uint64_t kBadPlanRowBudget = 10'000'000;
constexpr size_t kBadPlanSamples = 100;

}  // namespace

int main(int argc, char** argv) {
  JsonReport report("table1", ParseJsonFlag(&argc, argv));
  const ExecLimits limits = ParseLimitFlags(&argc, argv);
  std::printf(
      "Table 1: Query Optimization and Query Plan Evaluation Times (ms)\n"
      "Data sets at the paper's sizes: Mbench ~740K nodes, DBLP ~500K, "
      "Pers ~5K.\n"
      "'Bad Plan' = worst of %zu random valid plans (modelled cost); its "
      "eval is row-budget capped at %lluM rows ('>' marks a cap).\n\n",
      kBadPlanSamples,
      static_cast<unsigned long long>(kBadPlanRowBudget / 1'000'000));

  std::map<std::string, std::unique_ptr<DatasetHandle>> datasets;
  for (const char* name : {"Mbench", "DBLP", "Pers"}) {
    datasets.emplace(name, std::make_unique<DatasetHandle>(name, DatasetScale{}));
  }

  const std::vector<int> widths = {14, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9};
  PrintRule(widths);
  PrintRow(widths, {"", "DP", "", "DPP", "", "DPAP-EB", "", "DPAP-LD", "",
                    "FP", "", "Bad"});
  PrintRow(widths, {"Query", "Opt.", "Eval.", "Opt.", "Eval.", "Opt.",
                    "Eval.", "Opt.", "Eval.", "Opt.", "Eval.", "Plan"});
  PrintRule(widths);

  for (const BenchQuery& query : PaperWorkload()) {
    const DatasetHandle& dataset = *datasets.at(query.dataset);
    QueryEnv env(dataset, query.pattern);

    std::vector<std::string> cells = {query.id};
    for (const auto& optimizer :
         MakePaperOptimizers(query.pattern.NumEdges())) {
      Measurement m = MeasureOptimizer(env, optimizer.get(),
                                       /*eval_row_budget=*/0, limits);
      report.Add(query.id, m);
      cells.push_back(Ms(m.opt_ms));
      cells.push_back(Ms(m.eval_ms));
    }
    Measurement bad = MeasureBadPlan(env, kBadPlanSamples, /*seed=*/777,
                                     kBadPlanRowBudget, limits);
    report.Add(query.id, bad);
    cells.push_back((bad.eval_capped ? ">" : "") + Ms(bad.eval_ms));
    PrintRow(widths, cells);
  }
  PrintRule(widths);

  // Plan shapes chosen per query, for the qualitative claims.
  std::printf("\nChosen plans (DPP = optimal, FP = best fully-pipelined, "
              "DPAP-LD = best left-deep):\n");
  for (const BenchQuery& query : PaperWorkload()) {
    const DatasetHandle& dataset = *datasets.at(query.dataset);
    QueryEnv env(dataset, query.pattern);
    auto dpp = MakeDppOptimizer();
    auto fp = MakeFpOptimizer();
    auto ld = MakeDpapLdOptimizer();
    Measurement m_dpp = MeasureOptimizer(env, dpp.get());
    Measurement m_fp = MeasureOptimizer(env, fp.get());
    Measurement m_ld = MeasureOptimizer(env, ld.get());
    std::printf("  %-14s DPP: %s\n", query.id.c_str(), m_dpp.signature.c_str());
    std::printf("  %-14s FP : %s\n", "", m_fp.signature.c_str());
    std::printf("  %-14s LD : %s\n", "", m_ld.signature.c_str());
  }
  return report.Write() ? 0 : 1;
}
