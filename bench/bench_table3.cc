// Reproduces Table 3: plan execution time vs. data size for Q.Pers.3.d.
// The Pers data set is replicated by folding factors 1, 10, 100, 500
// (Sec. 4.3) and each algorithm's chosen plan is executed on each size.
//
// Expected shape: optimization time is size-independent (estimates come
// from histograms, so plan choice reacts to scale but the search does
// not grow); execution time grows with data; with growing folding the
// DP/DPP optimum migrates from a left-deep plan to a fully-pipelined
// bushy plan (sorting big intermediates starts to dominate), so FP tracks
// the optimum at scale while DPAP-LD falls behind; the bad plan is orders
// of magnitude slower throughout.

#include <cstdio>

#include "bench_util.h"
#include "plan/plan_props.h"

using namespace sjos;
using namespace sjos::bench;

namespace {

constexpr uint64_t kBadPlanRowBudget = 10'000'000;

}  // namespace

int main(int argc, char** argv) {
  const ExecLimits limits = ParseLimitFlags(&argc, argv);
  std::printf(
      "Table 3: Data Size and Query Plan Execution Time (ms), Query "
      "Q.Pers.3.d\n'>' = execution aborted at the %lluM-row join budget.\n\n",
      static_cast<unsigned long long>(kBadPlanRowBudget / 1'000'000));

  BenchQuery query = std::move(FindQuery("Q.Pers.3.d")).value();
  const std::vector<uint32_t> folds = {1, 10, 100, 500};

  struct RowData {
    std::string algo;
    std::vector<std::string> evals;
    std::vector<std::string> shapes;
  };
  std::vector<RowData> rows = {{"DP", {}, {}},      {"DPP", {}, {}},
                               {"DPAP-EB", {}, {}}, {"DPAP-LD", {}, {}},
                               {"FP", {}, {}},      {"bad plan", {}, {}}};

  for (uint32_t fold : folds) {
    DatasetScale scale;
    scale.fold = fold;
    DatasetHandle dataset("Pers", scale);
    QueryEnv env(dataset, query.pattern);

    std::vector<std::unique_ptr<Optimizer>> optimizers =
        MakePaperOptimizers(query.pattern.NumEdges());
    for (size_t i = 0; i < optimizers.size(); ++i) {
      // Optimized plans run unbudgeted — their intermediates are the whole
      // point of the comparison; only the bad plan needs the safety valve.
      Measurement m = MeasureOptimizer(env, optimizers[i].get(),
                                       /*eval_row_budget=*/0, limits);
      rows[i].evals.push_back((m.eval_capped ? ">" : "") + Ms(m.eval_ms));
      rows[i].shapes.push_back(m.signature);
    }
    Measurement bad =
        MeasureBadPlan(env, 100, /*seed=*/777, kBadPlanRowBudget, limits);
    rows[5].evals.push_back((bad.eval_capped ? ">" : "") + Ms(bad.eval_ms));
    rows[5].shapes.push_back(bad.signature);
  }

  const std::vector<int> widths = {10, 10, 10, 10, 10};
  PrintRule(widths);
  PrintRow(widths, {"", "x1", "x10", "x100", "x500"});
  PrintRule(widths);
  for (const RowData& row : rows) {
    std::vector<std::string> cells = {row.algo};
    cells.insert(cells.end(), row.evals.begin(), row.evals.end());
    PrintRow(widths, cells);
  }
  PrintRule(widths);

  std::printf("\nOptimal-plan migration with scale (DPP's choice per fold):\n");
  for (size_t f = 0; f < folds.size(); ++f) {
    std::printf("  x%-4u DPP: %s\n", folds[f], rows[1].shapes[f].c_str());
    std::printf("        LD : %s\n", rows[3].shapes[f].c_str());
    std::printf("        FP : %s\n", rows[4].shapes[f].c_str());
  }
  return 0;
}
