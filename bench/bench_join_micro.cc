// google-benchmark micro benchmarks for the Stack-Tree join operators:
// throughput of the Desc and Anc variants across input sizes, axes, and
// nesting shapes, plus the sort operator. These calibrate the cost-model
// factors (see DESIGN.md) and catch performance regressions in the join
// kernels.
//
// With --json <file> the binary instead times every production kernel in
// exec/vector_kernels.h on document-derived columns, and the whole-input
// Stack-Tree merge in both variants, and writes their rows/sec (the
// BENCH_kernels.json trajectory artifact). The two SSE2
// kernels are also timed against their scalar references, and a checksum
// over one sweep of each verifies that kernel and reference agree.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/operators.h"
#include "exec/stack_tree.h"
#include "exec/vector_kernels.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/generators/tree_gen.h"

namespace sjos {
namespace {

/// Deep random tree with two tags; tag t0 elements nest recursively, so
/// the t0-t1 join exercises non-trivial stack depths.
const Database& TreeDb(uint64_t nodes) {
  static auto* dbs = new std::map<uint64_t, std::unique_ptr<Database>>();
  auto it = dbs->find(nodes);
  if (it == dbs->end()) {
    TreeGenConfig config;
    config.target_nodes = nodes;
    config.max_depth = 12;
    config.num_tags = 2;
    config.seed = 71;
    it = dbs->emplace(nodes, std::make_unique<Database>(Database::Open(
                                 GenerateTree(config).value())))
             .first;
  }
  return *it->second;
}

ColumnBatch Candidates(const Database& db, const char* tag,
                       PatternNodeId slot) {
  ColumnBatch set({slot});
  TagId id = db.doc().dict().Find(tag);
  if (id != kInvalidTag) {
    for (NodeId n : db.index().Postings(id)) set.AppendRow(&n);
  }
  set.set_ordered_by_slot(0);
  return set;
}

void BM_StackTreeDesc(benchmark::State& state) {
  const Database& db = TreeDb(static_cast<uint64_t>(state.range(0)));
  ColumnBatch anc = Candidates(db, "t0", 0);
  ColumnBatch desc = Candidates(db, "t1", 1);
  uint64_t rows = 0;
  for (auto _ : state) {
    Result<ColumnBatch> out =
        StackTreeJoin(db.doc(), anc, 0, desc, 0, Axis::kDescendant,
                      /*output_by_ancestor=*/false);
    benchmark::DoNotOptimize(out);
    rows = out.value().size();
  }
  state.counters["out_rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(anc.size() + desc.size()));
}
BENCHMARK(BM_StackTreeDesc)->Arg(10000)->Arg(100000)->Arg(400000);

void BM_StackTreeAnc(benchmark::State& state) {
  const Database& db = TreeDb(static_cast<uint64_t>(state.range(0)));
  ColumnBatch anc = Candidates(db, "t0", 0);
  ColumnBatch desc = Candidates(db, "t1", 1);
  for (auto _ : state) {
    Result<ColumnBatch> out =
        StackTreeJoin(db.doc(), anc, 0, desc, 0, Axis::kDescendant,
                      /*output_by_ancestor=*/true);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(anc.size() + desc.size()));
}
BENCHMARK(BM_StackTreeAnc)->Arg(10000)->Arg(100000)->Arg(400000);

void BM_StackTreeParentChild(benchmark::State& state) {
  const Database& db = TreeDb(static_cast<uint64_t>(state.range(0)));
  ColumnBatch anc = Candidates(db, "t0", 0);
  ColumnBatch desc = Candidates(db, "t1", 1);
  for (auto _ : state) {
    Result<ColumnBatch> out = StackTreeJoin(db.doc(), anc, 0, desc, 0,
                                            Axis::kChild, false);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(anc.size() + desc.size()));
}
BENCHMARK(BM_StackTreeParentChild)->Arg(10000)->Arg(100000);

void BM_SelfJoinRecursiveTag(benchmark::State& state) {
  const Database& db = TreeDb(static_cast<uint64_t>(state.range(0)));
  ColumnBatch outer = Candidates(db, "t0", 0);
  ColumnBatch inner = Candidates(db, "t0", 1);
  for (auto _ : state) {
    Result<ColumnBatch> out = StackTreeJoin(db.doc(), outer, 0, inner, 0,
                                            Axis::kDescendant, false);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SelfJoinRecursiveTag)->Arg(10000)->Arg(100000);

void BM_SortOperator(benchmark::State& state) {
  const Database& db = TreeDb(100000);
  ColumnBatch anc = Candidates(db, "t0", 0);
  ColumnBatch desc = Candidates(db, "t1", 1);
  ColumnBatch joined = std::move(StackTreeJoin(db.doc(), anc, 0, desc, 0,
                                               Axis::kDescendant, false))
                           .value();
  for (auto _ : state) {
    ColumnBatch copy = joined;
    copy.SortBySlot(0);  // re-sort by the ancestor column
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(joined.size()));
}
BENCHMARK(BM_SortOperator);

void BM_IndexScan(benchmark::State& state) {
  const Database& db = TreeDb(static_cast<uint64_t>(state.range(0)));
  Pattern pattern = std::move(ParsePattern("t0")).value();
  for (auto _ : state) {
    ColumnBatch set = ScanCandidateColumns(db, pattern, 0);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_IndexScan)->Arg(100000)->Arg(400000);

// --------------------------------------------------------------------------
// Kernel mode (--json <file>): rows/sec for every kernel in
// exec/vector_kernels.h, on columns drawn from the same generated document
// the join benches use.

/// Best-of-`reps` wall seconds for one invocation of `body`.
template <typename Fn>
double BestSeconds(Fn&& body, int reps) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Rows/sec of `body`, which sweeps `rows` values and returns a checksum.
template <typename Fn>
double RowsPerSec(size_t rows, Fn&& body, int reps) {
  uint64_t sink = body();  // warm the code path and the column
  const double seconds = BestSeconds([&] { sink ^= body(); }, reps);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(rows) / seconds;
}

struct KernelRow {
  std::string name;
  size_t rows = 0;
  double rps = 0.0;
  bool has_reference = false;
  double reference_rps = 0.0;
  bool agree = true;  // kernel and reference produced equal checksums
};

template <typename Fn>
KernelRow TimeKernel(const std::string& name, size_t rows, Fn&& kernel,
                     int reps) {
  KernelRow row;
  row.name = name;
  row.rows = rows;
  row.rps = RowsPerSec(rows, kernel, reps);
  return row;
}

/// TimeKernel plus the scalar reference's rows/sec; equal checksums
/// certify that the two did identical work.
template <typename Fn, typename RefFn>
KernelRow TimeAgainstReference(const std::string& name, size_t rows,
                               Fn&& kernel, RefFn&& reference, int reps) {
  KernelRow row = TimeKernel(name, rows, kernel, reps);
  row.has_reference = true;
  row.agree = kernel() == reference();
  row.reference_rps = RowsPerSec(rows, reference, reps);
  return row;
}

int RunKernelComparison(const std::string& path) {
  const Database& db = TreeDb(400000);
  const Document& doc = db.doc();
  const int reps = 25;

  // The t1 candidate start column: a sorted join input.
  std::vector<NodeId> starts;
  {
    ColumnBatch t1 = Candidates(db, "t1", 0);
    starts.reserve(t1.size());
    for (size_t i = 0; i < t1.size(); ++i) starts.push_back(t1.At(i, 0));
  }
  const size_t n = starts.size();
  const size_t doc_n = doc.NumNodes();
  std::vector<uint32_t> sel(std::max(n, doc_n));

  auto sel_sum = [&sel](size_t k) {
    uint64_t h = k;
    for (size_t i = 0; i < k; ++i) h = h * 31 + sel[i];
    return h;
  };

  std::vector<KernelRow> rows;
  // Tag filter: the full document tag column against t0's id (the scan
  // and navigation filter shape).
  const TagId t0 = db.doc().dict().Find("t0");
  rows.push_back(TimeKernel(
      "sel_equals_u32", doc_n,
      [&] {
        return sel_sum(
            kernels::SelEqualsU32(doc.TagData(), doc_n, t0, sel.data()));
      },
      reps));

  // Level filter: the document level column against a mid depth (the
  // parent-child qualification shape).
  rows.push_back(TimeAgainstReference(
      "sel_equals_u16", doc_n,
      [&] {
        return sel_sum(
            kernels::SelEqualsU16(doc.LevelData(), doc_n, 6, sel.data()));
      },
      [&] {
        return sel_sum(kernels::SelEqualsU16Scalar(doc.LevelData(), doc_n, 6,
                                                   sel.data()));
      },
      reps));

  // Group detection: run-by-run sweep of a sorted column with the join's
  // ancestor-run shape (geometric runs, mean length 8).
  std::vector<NodeId> runs(n);
  {
    Rng rng(2003);
    NodeId v = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(1.0 / 8.0)) v += 1 + static_cast<NodeId>(
                                            rng.NextBelow(5));
      runs[i] = v;
    }
  }
  rows.push_back(TimeKernel(
      "run_length_end", n,
      [&] {
        uint64_t h = 0;
        for (size_t i = 0; i < n;
             i = kernels::RunLengthEnd(runs.data(), n, i)) {
          ++h;
        }
        return h;
      },
      reps));

  rows.push_back(TimeAgainstReference(
      "is_non_decreasing", n,
      [&] {
        return static_cast<uint64_t>(
            kernels::IsNonDecreasing(starts.data(), n));
      },
      [&] {
        return static_cast<uint64_t>(
            kernels::IsNonDecreasingScalar(starts.data(), n));
      },
      reps));

  // Sort permutation application: gather through a random permutation.
  std::vector<uint32_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
  Rng(7).Shuffle(&idx);
  std::vector<uint32_t> dst(n);
  rows.push_back(TimeKernel(
      "gather_u32", n,
      [&] {
        kernels::GatherU32(starts.data(), idx.data(), n, dst.data());
        uint64_t h = 0;
        for (size_t i = 0; i < n; ++i) h = h * 31 + dst[i];
        return h;
      },
      reps));

  // The Stack-Tree merge itself, whole-input t0//t1 in both variants: its
  // rows are inputs plus output, the work the paper's cost model charges.
  const ColumnBatch t0_rows = Candidates(db, "t0", 0);
  const ColumnBatch t1_rows = Candidates(db, "t1", 1);
  for (bool by_anc : {false, true}) {
    auto join = [&] {
      return static_cast<uint64_t>(
          StackTreeJoin(db.doc(), t0_rows, 0, t1_rows, 0, Axis::kDescendant,
                        by_anc)
              .value()
              .size());
    };
    rows.push_back(TimeKernel(by_anc ? "stack_tree_anc" : "stack_tree_desc",
                              t0_rows.size() + t1_rows.size() + join(), join,
                              reps));
  }

  std::string out = "{\n  \"bench\": \"bench_join_micro\",\n";
  out += "  \"mode\": \"kernels\",\n";
  out += StrFormat("  \"isa\": \"%s\",\n  \"reps\": %d,\n  \"kernels\": [",
                   SimdIsa(), reps);
  bool all_agree = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    all_agree = all_agree && r.agree;
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat("    {\"name\": \"%s\", \"rows\": %llu, "
                     "\"rows_per_sec\": %.0f",
                     r.name.c_str(), static_cast<unsigned long long>(r.rows),
                     r.rps);
    std::printf("%-18s %12.0f", r.name.c_str(), r.rps);
    if (r.has_reference) {
      out += StrFormat(
          ", \"reference_rows_per_sec\": %.0f, \"speedup\": %.2f, "
          "\"agree\": %s",
          r.reference_rps, r.rps / r.reference_rps,
          r.agree ? "true" : "false");
      std::printf(" %12.0f   %5.2fx%s", r.reference_rps,
                  r.rps / r.reference_rps, r.agree ? "" : "  MISMATCH");
    }
    out += "}";
    std::printf("\n");
  }
  out += "\n  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  if (!ok || !all_agree) {
    std::fprintf(stderr, "bench: %s\n",
                 !ok ? "short write" : "kernel/reference checksum mismatch");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sjos

// Custom main: strip --json before google-benchmark sees the flags. --json
// switches to the kernel mode.
int main(int argc, char** argv) {
  const std::string json = sjos::bench::ParseJsonFlag(&argc, argv);
  if (!json.empty()) return sjos::RunKernelComparison(json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
