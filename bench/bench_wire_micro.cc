// google-benchmark micro benchmarks for the wire's result path, one layer
// at a time: the server's canonical row order (TupleSet::CanonicalOrder),
// its JSON encode (EncodeDoneResult) and the client's decode (ParseJson).
// Each runs on two results: a synthetic frame of 100K rows of 4 ids (the
// frame json_alloc_test parses) and the result of Q.Pers.2.c on a
// 20K-node Pers document (~1e5 rows of 5 ids, the largest pers_wire
// reply). These are the layers perfbench's pers_wire workload reports as
// net.response_ms and net.decode_ms, timed here without a socket.
//
// Run: ./build/bench/bench_wire_micro --benchmark_min_time=0.5
// The 64 KiB blocks of a parse tree are kept on a free list, but the rows
// array's run is larger than a block and comes from the heap each time.
// Setting glibc.malloc.trim_threshold and glibc.malloc.mmap_threshold to
// 1073741824 in GLIBC_TUNABLES keeps page faults out of ParseJson's time.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/json.h"
#include "query/workload.h"
#include "service/engine.h"

namespace sjos {
namespace net {
namespace {

/// 100K rows of 4 random ids below 200K, as json_alloc_test builds them.
const QueryResult& SyntheticResult() {
  static const QueryResult* result = [] {
    constexpr int kRows = 100'000;
    auto* qr = new QueryResult;
    qr->tuples = TupleSet(std::vector<PatternNodeId>{0, 1, 2, 3});
    Rng rng(19);
    for (int r = 0; r < kRows; ++r) {
      const NodeId row[4] = {static_cast<NodeId>(rng.NextBelow(200'000)),
                             static_cast<NodeId>(rng.NextBelow(200'000)),
                             static_cast<NodeId>(rng.NextBelow(200'000)),
                             static_cast<NodeId>(rng.NextBelow(200'000))};
      qr->tuples.AppendRow(row);
    }
    qr->stats.result_rows = kRows;
    return qr;
  }();
  return *result;
}

/// Q.Pers.2.c's result on a 20K-node Pers document.
const QueryResult& PersResult() {
  static const QueryResult* result = [] {
    Engine engine;
    Status opened = engine.OpenDatabase(
        std::move(MakePaperDataset("Pers", DatasetScale{20'000, 1})).value());
    SJOS_CHECK(opened.ok(), opened.ToString().c_str());
    Result<QueryResult> qr =
        engine.Query(FindQuery("Q.Pers.2.c").value().pattern);
    SJOS_CHECK(qr.ok(), qr.status().ToString().c_str());
    return new QueryResult(std::move(qr).value());
  }();
  return *result;
}

const QueryResult& ResultFor(int which) {
  return which == 0 ? SyntheticResult() : PersResult();
}

void Label(benchmark::State& state, const QueryResult& qr) {
  state.SetLabel(state.range(0) == 0 ? "synthetic" : "Q.Pers.2.c");
  state.counters["rows"] = static_cast<double>(qr.tuples.size());
}

void BM_CanonicalOrder(benchmark::State& state) {
  const QueryResult& qr = ResultFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TupleSet::Order order = qr.tuples.CanonicalOrder();
    benchmark::DoNotOptimize(order);
  }
  Label(state, qr);
}
BENCHMARK(BM_CanonicalOrder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EncodeDoneResult(benchmark::State& state) {
  const QueryResult& qr = ResultFor(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string frame =
        EncodeDoneResult("bench", qr, kFrameAbsoluteMaxPayload);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame);
  }
  Label(state, qr);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_EncodeDoneResult)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ParseJson(benchmark::State& state) {
  const QueryResult& qr = ResultFor(static_cast<int>(state.range(0)));
  const std::string frame =
      EncodeDoneResult("bench", qr, kFrameAbsoluteMaxPayload);
  size_t rows = 0;
  for (auto _ : state) {
    Result<JsonValue> parsed = ParseJson(frame);
    SJOS_CHECK(parsed.ok(), parsed.status().ToString().c_str());
    rows = parsed.value().Find("result")->Find("rows")->array().size();
    benchmark::DoNotOptimize(parsed);
  }
  SJOS_CHECK(rows == qr.tuples.size(), "decoded row count differs");
  Label(state, qr);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_ParseJson)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace net
}  // namespace sjos
