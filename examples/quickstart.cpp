// Quickstart: the whole pipeline in one page.
//
//   1. Parse an XML document (or generate one).
//   2. Load it into an Engine (builds tag indexes, statistics, estimator).
//   3. Parse a pattern query.
//   4. Query: the Engine estimates, optimizes (DPP by default, with plan
//      caching), and executes in one call.
//
// The step-by-step expert API (Database / PatternEstimates / Optimizer /
// Executor) is still available — see optimizer_compare.cpp internals or
// the header comments of exec/executor.h and core/optimizer.h.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <cstdio>

#include "plan/plan_printer.h"
#include "query/pattern_parser.h"
#include "service/engine.h"
#include "xml/parser.h"

int main() {
  using namespace sjos;

  // 1. A small personnel document (the paper's running-example domain).
  const char* xml = R"(
    <company>
      <manager><name>ann</name>
        <employee><name>bo</name></employee>
        <employee><name>cy</name></employee>
        <manager><name>dee</name>
          <department><name>sales</name></department>
          <employee><name>ed</name></employee>
        </manager>
      </manager>
    </company>)";
  Result<Document> doc = ParseXml(xml);
  if (!doc.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", doc.status().ToString().c_str());
    return 1;
  }

  // 2. Load into an Engine: tag index + statistics + estimator, ready to
  //    serve queries.
  Engine engine;
  if (!engine.Apply(LoadDocument{std::move(doc).value(), "quickstart"}).ok()) {
    return 1;
  }
  std::printf("loaded %zu nodes, %zu distinct tags\n\n",
              engine.db().doc().NumNodes(), engine.db().doc().dict().size());

  // 3. The running example of the paper's Fig. 1: managers with a
  //    descendant employee (with name) and a descendant manager directly
  //    supervising a department (with name).
  Result<Pattern> pattern = ParsePattern(
      "manager[//employee[/name]][//manager[/department[/name]]]");
  if (!pattern.ok()) {
    std::fprintf(stderr, "bad pattern: %s\n",
                 pattern.status().ToString().c_str());
    return 1;
  }
  std::printf("query pattern: %s\n\n", pattern.value().ToString().c_str());

  // 4. Query. QueryOptions defaults to DPP — the paper's recommended
  //    optimal algorithm — with the plan cache enabled, so repeating the
  //    pattern skips optimization entirely.
  Result<QueryResult> result = engine.Query(pattern.value(), QueryOptions{});
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const PlannedQuery& planned = result.value().planned;
  std::printf("chosen plan (%s, %llu alternatives considered, %.3f ms):\n%s\n",
              planned.algorithm.c_str(),
              static_cast<unsigned long long>(
                  planned.opt_stats.plans_considered),
              planned.opt_stats.opt_time_ms,
              PrintPlan(planned.plan, pattern.value()).c_str());

  const TupleSet& tuples = result.value().tuples;
  std::printf("matches: %zu (executed in %.3f ms)\n", tuples.size(),
              result.value().stats.wall_ms);
  for (size_t row = 0; row < tuples.size(); ++row) {
    std::printf("  match %zu:", row);
    for (size_t slot = 0; slot < tuples.arity(); ++slot) {
      PatternNodeId pnode = tuples.slots()[slot];
      NodeId bound = tuples.At(row, slot);
      // Show the element's own text if it has any (name nodes do).
      std::string_view text = engine.db().doc().TextOf(bound);
      if (text.empty()) {
        std::printf("  %s@%u", pattern.value().node(pnode).tag.c_str(), bound);
      } else {
        std::printf("  %s@%u('%.*s')", pattern.value().node(pnode).tag.c_str(),
                    bound, static_cast<int>(text.size()), text.data());
      }
    }
    std::printf("\n");
  }

  // Bonus: the same query again — served from the plan cache.
  Result<QueryResult> again = engine.Query(pattern.value(), QueryOptions{});
  if (again.ok()) {
    PlanCacheCounters cc = engine.plan_cache().Counters();
    std::printf("\nsecond run: cache_hit=%s (cache: %llu hits, %llu misses)\n",
                again.value().planned.cache_hit ? "yes" : "no",
                static_cast<unsigned long long>(cc.hits),
                static_cast<unsigned long long>(cc.misses));
  }
  return 0;
}
