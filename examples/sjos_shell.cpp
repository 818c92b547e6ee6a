// sjos_shell: a small interactive query shell over the library — load or
// generate a document, inspect statistics, and run pattern or XPath
// queries with any of the five optimizers (or the holistic twig join).
// Queries go through sjos::Engine, so repeated patterns are served from
// the plan cache (inspect it with \cache stats).
//
// Commands (one per line; '#' starts a comment):
//   gen <Pers|DBLP|Mbench|XMark> [nodes] [fold]   generate a data set
//   load <path.xml>                               parse an XML file
//   fold <factor>                                 refold the loaded document
//   stats                                         document statistics
//   algo <dp|dpp|dpap-eb|dpap-ld|fp>              choose the optimizer
//   query <pattern>                               run a pattern query
//   xpath <xpath>                                 run an XPath query
//   twig <pattern>                                run the holistic twig join
//   plan <pattern>                                show the plan, don't run
//   \insert <parent> <xml>                        insert a subtree
//   \delete <key>                                 delete a subtree
//   \flush                                        fold overlay into base
//   quit
//
// Also usable non-interactively:  echo 'gen Pers\nquery manager[//name]' |
//   ./build/examples/sjos_shell
//
// Remote mode:  sjos_shell --connect 127.0.0.1:7544  talks to a running
// sjos_serve over the wire protocol instead of an in-process Engine
// (commands: query, xpath, plan, algo, \metrics, \top, \slow, \insert,
// \delete, \flush, \drain, ping, quit). The connection is a plain
// net::Client: a request that loses its connection is re-dialed and
// re-sent once — a one-line "[reconnected]" notice marks it — and a query
// whose poll answers NotFound (the server restarted) is re-submitted once
// under the same id. Every request is safe to re-send: the server
// attaches or replays by id.
//
// Observability commands (both modes): \metrics appends a p50/p95/p99
// digest per histogram, \top lists queries in flight, \slow [n] the most
// recent slow-promoted audit records.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "exec/twig_join.h"
#include "net/json.h"
#include "net/client.h"
#include "plan/plan_printer.h"
#include "query/pattern_parser.h"
#include "query/workload.h"
#include "query/xpath.h"
#include "service/engine.h"
#include "xml/generators/xmark_gen.h"
#include "xml/parser.h"

using namespace sjos;

namespace {

class Shell {
 public:
  int Run() {
    std::printf("sjos shell — type 'help' for commands\n");
    std::string line;
    while (NextLine(&line)) {
      std::istringstream words(line);
      std::string command;
      if (!(words >> command)) continue;
      if (command[0] == '#') continue;
      if (command == "quit" || command == "exit") break;
      Dispatch(command, &words, line);
    }
    return 0;
  }

 private:
  static bool NextLine(std::string* line) {
    std::printf("> ");
    std::fflush(stdout);
    return static_cast<bool>(std::getline(std::cin, *line));
  }

  void Dispatch(const std::string& command, std::istringstream* words,
                const std::string& line) {
    if (command == "help") {
      Help();
    } else if (command == "gen") {
      Generate(words);
    } else if (command == "load") {
      Load(words);
    } else if (command == "fold") {
      Fold(words);
    } else if (command == "stats") {
      Stats();
    } else if (command == "algo") {
      ChooseAlgo(words);
    } else if (command == "query" || command == "plan" || command == "twig") {
      RunQuery(command, Rest(line, command));
    } else if (command == "xpath") {
      RunXPath(Rest(line, command));
    } else if (command == "\\metrics") {
      Metrics();
    } else if (command == "\\top") {
      Top();
    } else if (command == "\\slow") {
      Slow(words);
    } else if (command == "\\trace") {
      Trace(words);
    } else if (command == "\\cache") {
      Cache(words);
    } else if (command == "\\deadline") {
      SetLimit(words, &deadline_ms_, "deadline", "ms");
    } else if (command == "\\memlimit") {
      SetLimit(words, &mem_limit_bytes_, "memory limit", "bytes");
    } else if (command == "\\insert") {
      Insert(words);
    } else if (command == "\\delete") {
      Delete(words);
    } else if (command == "\\flush") {
      Flush();
    } else {
      std::printf("unknown command '%s' — try 'help'\n", command.c_str());
    }
  }

  static std::string Rest(const std::string& line, const std::string& command) {
    std::string rest = line.substr(line.find(command) + command.size());
    return std::string(Trim(rest));
  }

  void Help() {
    std::printf(
        "  gen <Pers|DBLP|Mbench|XMark> [nodes] [fold]\n"
        "  load <path.xml>\n"
        "  fold <factor>       refold the loaded document (Sec. 4.3 scaling)\n"
        "  stats\n"
        "  algo <dp|dpp|dpap-eb|dpap-ld|fp>   (current: %s)\n"
        "  query <pattern>     e.g. query manager[//employee[/name]]\n"
        "  xpath <xpath>       e.g. xpath //manager[.//employee]/name\n"
        "  twig <pattern>      holistic twig join, no optimizer\n"
        "  plan <pattern>      explain without executing\n"
        "  \\metrics            dump the metrics registry (Prometheus text\n"
        "                      plus p50/p95/p99 per histogram)\n"
        "  \\top                queries in flight + audit-log totals\n"
        "  \\slow [n]           the n most recent slow queries (default 10)\n"
        "  \\trace on <file>    start recording a Chrome trace\n"
        "  \\trace off          stop recording and flush the trace file\n"
        "  \\cache stats        plan-cache size and hit/miss counters\n"
        "  \\cache clear        drop every cached plan\n"
        "  \\deadline <ms>      whole-query deadline, optimize + execute"
        " (0 = off)\n"
        "  \\memlimit <bytes>   executor live-bytes budget (0 = off)\n"
        "  \\insert <parent> <xml>   insert a subtree under node <parent>\n"
        "  \\delete <key>       delete the subtree rooted at node <key>\n"
        "  \\flush              fold the differential overlay into the base\n"
        "  quit\n",
        OptimizerKindName(algo_));
  }

  void SetLimit(std::istringstream* words, uint64_t* slot, const char* what,
                const char* unit) {
    uint64_t value = 0;
    if (!(*words >> value)) {
      std::printf("usage: \\%s <%s>  (current: %llu, 0 = off)\n",
                  what[0] == 'd' ? "deadline" : "memlimit", unit,
                  static_cast<unsigned long long>(*slot));
      return;
    }
    *slot = value;
    if (value == 0) {
      std::printf("%s cleared\n", what);
    } else {
      std::printf("%s: %llu %s\n", what,
                  static_cast<unsigned long long>(value), unit);
    }
  }

  void Metrics() {
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    std::printf("%s", snap.ToPrometheus().c_str());
    // Quantile digest: one line per non-empty histogram, estimated from
    // the log2 buckets (see MetricsSnapshot::HistogramData::Quantile).
    for (const auto& h : snap.histograms) {
      if (h.count == 0) continue;
      std::printf("# quantiles %s: count=%llu p50=%.0f p95=%.0f p99=%.0f\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99));
    }
  }

  void Top() {
    const std::vector<InFlightInfo> in_flight = engine_.InFlightQueries();
    if (in_flight.empty()) {
      std::printf("no queries in flight\n");
    }
    for (const InFlightInfo& q : in_flight) {
      std::printf("  %-16s tenant=%-8s algo=%-7s elapsed=%.1f ms "
                  "live=%llu bytes\n",
                  q.query_id.c_str(),
                  q.tenant.empty() ? "-" : q.tenant.c_str(),
                  q.optimizer.c_str(), q.elapsed_ms,
                  static_cast<unsigned long long>(q.live_bytes));
    }
    const QueryLog& log = engine_.query_log();
    std::printf("audit log: %llu queries recorded, %llu slow, %llu dropped\n",
                static_cast<unsigned long long>(log.appended()),
                static_cast<unsigned long long>(log.slow_count()),
                static_cast<unsigned long long>(log.dropped()));
  }

  void Slow(std::istringstream* words) {
    size_t n = 10;
    *words >> n;
    if (n == 0) n = 10;
    const std::vector<QueryLogRecord> slow = engine_.query_log().RecentSlow(n);
    if (slow.empty()) {
      std::printf("no slow queries recorded (threshold: %llu ms)\n",
                  static_cast<unsigned long long>(
                      engine_.query_log().options().slow_query_ms));
      return;
    }
    for (const QueryLogRecord& rec : slow) {
      std::printf("  %-16s %8.1f ms  %llu rows  %s%s%s\n",
                  rec.query_id.c_str(), rec.total_ms,
                  static_cast<unsigned long long>(rec.actual_rows),
                  rec.ok ? "ok" : rec.status_code.c_str(),
                  rec.verdict.empty() ? "" : " verdict=",
                  rec.verdict.c_str());
    }
  }

  void Trace(std::istringstream* words) {
    std::string verb;
    *words >> verb;
    if (verb == "on") {
      std::string path;
      *words >> path;
      Status st = Tracer::Global().Start(path);
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return;
      }
      std::printf("tracing to %s — load the file at ui.perfetto.dev\n",
                  path.c_str());
    } else if (verb == "off") {
      Status st = Tracer::Global().Stop();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return;
      }
      std::printf("trace stopped\n");
    } else {
      std::printf("usage: \\trace on <file> | \\trace off\n");
    }
  }

  void Cache(std::istringstream* words) {
    std::string verb;
    *words >> verb;
    if (verb == "stats") {
      PlanCacheCounters c = engine_.plan_cache().Counters();
      std::printf(
          "plan cache: %zu/%zu entries\n"
          "  hits=%llu misses=%llu evictions=%llu invalidations=%llu\n",
          engine_.plan_cache().Size(), engine_.plan_cache().capacity(),
          static_cast<unsigned long long>(c.hits),
          static_cast<unsigned long long>(c.misses),
          static_cast<unsigned long long>(c.evictions),
          static_cast<unsigned long long>(c.invalidations));
    } else if (verb == "clear") {
      engine_.plan_cache().Clear();
      std::printf("plan cache cleared\n");
    } else {
      std::printf("usage: \\cache stats | \\cache clear\n");
    }
  }

  void Generate(std::istringstream* words) {
    std::string name;
    uint64_t nodes = 0;
    uint32_t fold = 1;
    *words >> name >> nodes >> fold;
    if (fold == 0) fold = 1;
    Result<Database> db = Status::InvalidArgument("unreached");
    if (name == "XMark") {
      XmarkGenConfig config;
      if (nodes > 0) config.target_nodes = nodes;
      Result<Document> doc = GenerateXmark(config);
      db = doc.ok() ? Result<Database>(
                          Database::Open(std::move(doc).value(), "XMark"))
                    : Result<Database>(doc.status());
    } else {
      DatasetScale scale;
      scale.base_nodes = nodes;
      scale.fold = fold;
      db = MakePaperDataset(name, scale);
    }
    if (!db.ok()) {
      std::printf("error: %s\n", db.status().ToString().c_str());
      return;
    }
    Open(std::move(db).value());
  }

  void Load(std::istringstream* words) {
    std::string path;
    *words >> path;
    Result<Document> doc = ParseXmlFile(path);
    if (!doc.ok()) {
      std::printf("error: %s\n", doc.status().ToString().c_str());
      return;
    }
    Open(Database::Open(std::move(doc).value(), path));
  }

  void Fold(std::istringstream* words) {
    uint32_t factor = 0;
    if (!(*words >> factor) || factor == 0) {
      std::printf("usage: fold <factor>\n");
      return;
    }
    Result<MutationResult> r = engine_.Apply(FoldMutation{factor});
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    std::printf("folded x%u: %zu nodes now (%llu cached plans invalidated, "
                "scope=%s)\n",
                factor, engine_.db().doc().NumNodes(),
                static_cast<unsigned long long>(r.value().cache_invalidated),
                r.value().scope.c_str());
  }

  void PrintMutation(const char* what, const MutationResult& mr) {
    std::printf("%s: +%llu/-%llu nodes (%llu live), %llu histogram deltas, "
                "%llu plans invalidated%s%s%s\n",
                what, static_cast<unsigned long long>(mr.nodes_added),
                static_cast<unsigned long long>(mr.nodes_removed),
                static_cast<unsigned long long>(engine_.db().LiveNodeCount()),
                static_cast<unsigned long long>(mr.histogram_deltas),
                static_cast<unsigned long long>(mr.cache_invalidated),
                mr.scope.empty() ? "" : " (scope=",
                mr.scope.c_str(), mr.scope.empty() ? "" : ")");
    if (mr.estimator_rebuilt) {
      std::printf("  (estimator rebuilt from scratch)\n");
    }
  }

  void Insert(std::istringstream* words) {
    if (!Ready()) return;
    NodeId parent = 0;
    std::string xml;
    if (!(*words >> parent) || !std::getline(*words, xml) ||
        Trim(xml).empty()) {
      std::printf("usage: \\insert <parent-key> <xml-fragment>\n");
      return;
    }
    Result<MutationResult> r = engine_.Apply(
        InsertSubtree{parent, static_cast<size_t>(-1), std::string(Trim(xml))});
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    PrintMutation("insert", r.value());
  }

  void Delete(std::istringstream* words) {
    if (!Ready()) return;
    NodeId key = 0;
    if (!(*words >> key)) {
      std::printf("usage: \\delete <node-key>\n");
      return;
    }
    Result<MutationResult> r = engine_.Apply(DeleteSubtree{key});
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    PrintMutation("delete", r.value());
  }

  void Flush() {
    if (!Ready()) return;
    Result<MutationResult> r = engine_.Apply(FlushDifferential{});
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    PrintMutation("flush", r.value());
  }

  void Open(Database db) {
    if (!engine_.OpenDatabase(std::move(db)).ok()) return;
    std::printf("opened '%s': %zu nodes, %zu tags\n",
                engine_.db().name().c_str(), engine_.db().doc().NumNodes(),
                engine_.db().doc().dict().size());
  }

  void Stats() {
    if (!Ready()) return;
    std::printf("%s",
                engine_.db().stats().ToString(engine_.db().doc()).c_str());
  }

  void ChooseAlgo(std::istringstream* words) {
    std::string name;
    *words >> name;
    Result<OptimizerKind> kind = ParseOptimizerKind(name);
    if (!kind.ok()) {
      std::printf("%s\n", kind.status().message().c_str());
      return;
    }
    algo_ = kind.value();
    std::printf("optimizer: %s\n", OptimizerKindName(algo_));
  }

  bool Ready() {
    if (!engine_.has_database()) {
      std::printf("no document loaded — use 'gen' or 'load' first\n");
      return false;
    }
    return true;
  }

  void RunQuery(const std::string& mode, const std::string& text) {
    if (!Ready()) return;
    Result<Pattern> pattern = ParsePattern(text);
    if (!pattern.ok()) {
      std::printf("error: %s\n", pattern.status().ToString().c_str());
      return;
    }
    Execute(mode, pattern.value());
  }

  void RunXPath(const std::string& text) {
    if (!Ready()) return;
    Result<XPathQuery> query = ParseXPath(text);
    if (!query.ok()) {
      std::printf("error: %s\n", query.status().ToString().c_str());
      return;
    }
    std::printf("pattern: %s (result node #%d)\n",
                query.value().pattern.ToString().c_str(),
                query.value().result_node);
    Execute("query", query.value().pattern);
  }

  QueryOptions Options() const {
    QueryOptions options;
    options.optimizer = algo_;
    options.deadline_ms = deadline_ms_;
    options.max_live_bytes = mem_limit_bytes_;
    return options;
  }

  void PrintPlanned(const PlannedQuery& planned, const Pattern& pattern) {
    if (!planned.fallback_from.empty()) {
      std::printf("note: %s hit its deadline; plan below is the FP fallback\n",
                  planned.fallback_from.c_str());
    }
    if (planned.cache_hit) {
      std::printf("%s plan (cache hit — no search ran):\n%s",
                  planned.algorithm.c_str(),
                  PrintPlan(planned.plan, pattern).c_str());
    } else {
      std::printf("%s plan (%.3f ms, %llu alternatives):\n%s",
                  planned.algorithm.c_str(), planned.opt_stats.opt_time_ms,
                  static_cast<unsigned long long>(
                      planned.opt_stats.plans_considered),
                  PrintPlan(planned.plan, pattern).c_str());
    }
  }

  void Execute(const std::string& mode, const Pattern& pattern) {
    if (mode == "twig") {
      TwigJoinStats stats;
      Result<TupleSet> result = TwigJoin(engine_.db(), pattern, &stats);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        return;
      }
      std::printf("%zu matches in %.3f ms (%zu paths, %llu path rows)\n",
                  result.value().size(), stats.wall_ms, stats.num_paths,
                  static_cast<unsigned long long>(stats.path_solutions));
      return;
    }
    if (mode == "plan") {
      Result<PlannedQuery> planned = engine_.Plan(pattern, Options());
      if (!planned.ok()) {
        std::printf("error: %s\n", planned.status().ToString().c_str());
        return;
      }
      PrintPlanned(planned.value(), pattern);
      return;
    }
    QueryErrorInfo error_info;
    Result<QueryResult> result = engine_.Query(pattern, Options(), &error_info);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      // The governor leaves partial stats behind when it cut the query short.
      if (!error_info.verdict.empty()) {
        std::printf(
            "governor verdict: %s (after %.3f ms, %llu rows out, peak %llu "
            "live rows / %llu live bytes)\n",
            error_info.verdict.c_str(), error_info.partial_stats.wall_ms,
            static_cast<unsigned long long>(
                error_info.partial_stats.result_rows),
            static_cast<unsigned long long>(
                error_info.partial_stats.peak_live_rows),
            static_cast<unsigned long long>(
                error_info.partial_stats.peak_live_bytes));
      }
      return;
    }
    PrintPlanned(result.value().planned, pattern);
    std::printf("%llu matches in %.3f ms (peak %llu live rows)\n",
                static_cast<unsigned long long>(
                    result.value().stats.result_rows),
                result.value().stats.wall_ms,
                static_cast<unsigned long long>(
                    result.value().stats.peak_live_rows));
    std::printf("measured (EXPLAIN ANALYZE):\n%s",
                PrintPlanAnalyze(result.value().planned.plan, pattern,
                                 result.value().op_stats)
                    .c_str());
  }

  Engine engine_;
  OptimizerKind algo_ = OptimizerKind::kDpp;
  uint64_t deadline_ms_ = 0;        // \deadline — 0 disables
  uint64_t mem_limit_bytes_ = 0;    // \memlimit — 0 disables
};

/// The shell's remote face: the same query/xpath/plan commands, executed
/// on a sjos_serve instance over the wire protocol. Each query is a
/// submit + blocking poll round trip on one net::Client, with one
/// reconnect per request and one re-submit per query (see file comment).
class RemoteShell {
 public:
  RemoteShell(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}

  int Run() {
    std::printf("sjos shell (remote) — query/xpath/plan/algo/"
                "\\metrics/\\top/\\slow/\\drain/ping/quit\n");
    std::string line;
    while (NextLine(&line)) {
      std::istringstream words(line);
      std::string command;
      if (!(words >> command)) continue;
      if (command[0] == '#') continue;
      if (command == "quit" || command == "exit") break;
      if (command == "query" || command == "xpath") {
        RunQuery(command == "xpath", Rest(line, command));
      } else if (command == "plan") {
        Explain(Rest(line, command));
      } else if (command == "algo") {
        words >> algo_;
        std::printf("optimizer: %s\n", algo_.c_str());
      } else if (command == "\\metrics") {
        Stats();
      } else if (command == "\\top") {
        Top();
      } else if (command == "\\slow") {
        Slow(&words);
      } else if (command == "\\drain") {
        DrainServer();
      } else if (command == "\\insert") {
        Update("insert", &words);
      } else if (command == "\\delete") {
        Update("delete", &words);
      } else if (command == "\\flush") {
        Update("flush", &words);
      } else if (command == "ping") {
        Ping();
      } else {
        std::printf("remote commands: query <pattern> | xpath <x> | "
                    "plan <pattern> | algo <name> | \\metrics | \\top | "
                    "\\slow [n] | \\insert <parent> <xml> | \\delete <key> | "
                    "\\flush | \\drain | ping | quit\n");
      }
    }
    return 0;
  }

 private:
  static bool NextLine(std::string* line) {
    std::printf("> ");
    std::fflush(stdout);
    return static_cast<bool>(std::getline(std::cin, *line));
  }

  static std::string Rest(const std::string& line, const std::string& command) {
    std::string rest = line.substr(line.find(command) + command.size());
    return std::string(Trim(rest));
  }

  /// Query ids must be unique per server lifetime (the server's
  /// idempotency table replays completed ids), so the shell prefixes its
  /// counter with the process id — two shell sessions against one server
  /// never collide.
  std::string NextId() {
    return "sh-" + std::to_string(::getpid()) + "-" +
           std::to_string(next_id_++);
  }

  /// One round trip, dialing on first use. A request that loses an
  /// established connection is re-dialed and re-sent once.
  Result<net::JsonValue> RoundTrip(const std::string& request) {
    const bool reconnecting = client_.connected();
    if (reconnecting) {
      Result<net::JsonValue> response = client_.Call(request);
      if (response.ok() ||
          response.status().code() != StatusCode::kUnavailable) {
        return response;
      }
      client_.Close();
    }
    Result<net::Client> dialed = net::Client::Connect(host_, port_);
    if (!dialed.ok()) return dialed.status();
    client_ = std::move(dialed).value();
    if (reconnecting) std::printf("[reconnected]\n");
    return client_.Call(request);
  }

  /// RoundTrip that prints transport errors and returns the parsed
  /// response otherwise.
  std::optional<net::JsonValue> Call(const std::string& request) {
    Result<net::JsonValue> response = RoundTrip(request);
    if (!response.ok()) {
      std::printf("transport error: %s\n",
                  response.status().ToString().c_str());
      return std::nullopt;
    }
    return std::move(response).value();
  }

  static bool IsDone(const net::JsonValue& response) {
    const net::JsonValue* done = response.Find("done");
    return done != nullptr && done->is_bool() && done->bool_value();
  }

  /// Submit, then poll to a terminal reply. A poll answered NotFound
  /// (the server restarted and lost the id) re-submits the same id once.
  std::optional<net::JsonValue> Execute(const std::string& id,
                                        const std::string& submit) {
    std::string poll = "{\"verb\":\"poll\",\"id\":";
    net::AppendJsonString(id, &poll);
    poll += ",\"wait_ms\":10000}";
    bool resubmitted = false;
    std::optional<net::JsonValue> response = Call(submit);
    while (response && IsOk(*response) && !IsDone(*response)) {
      response = Call(poll);
      if (response && !resubmitted && !IsOk(*response) &&
          Str(*response, "code") == "NotFound") {
        resubmitted = true;
        response = Call(submit);
      }
    }
    return response;
  }

  static bool IsOk(const net::JsonValue& response) {
    const net::JsonValue* ok = response.Find("ok");
    return ok != nullptr && ok->is_bool() &&
           ok->bool_value();
  }

  static void PrintError(const net::JsonValue& response) {
    const net::JsonValue* code = response.Find("code");
    const net::JsonValue* error = response.Find("error");
    std::printf("server error [%s]: %s\n",
                StrOr(code, "?").c_str(), StrOr(error, "?").c_str());
    const net::JsonValue* retry = response.Find("retry_after_ms");
    if (retry != nullptr) {
      std::printf("  retry after %.0f ms\n", retry->number_value());
    }
  }

  std::string SubmitRequest(const char* verb, const std::string& id,
                            const std::string& text, bool xpath) {
    std::string request = "{\"verb\":\"";
    request += verb;
    request += "\",\"id\":";
    net::AppendJsonString(id, &request);
    request += ",\"query\":";
    net::AppendJsonString(text, &request);
    request += ",\"optimizer\":";
    net::AppendJsonString(algo_, &request);
    if (xpath) request += ",\"xpath\":true";
    request += "}";
    return request;
  }

  void RunQuery(bool xpath, const std::string& text) {
    const std::string id = NextId();
    std::optional<net::JsonValue> terminal =
        Execute(id, SubmitRequest("submit", id, text, xpath));
    if (!terminal) return;
    const net::JsonValue& response = *terminal;
    if (!IsOk(response)) {
      PrintError(response);
      const net::JsonValue* verdict = response.Find("verdict");
      if (verdict != nullptr && !verdict->string_value().empty()) {
        std::printf("governor verdict: %s\n",
                    std::string(verdict->string_value()).c_str());
      }
      return;
    }
    const net::JsonValue* result = response.Find("result");
    if (result == nullptr) return;
    const net::JsonValue* rows = result->Find("row_count");
    const net::JsonValue* stats = result->Find("stats");
    const net::JsonValue* algorithm = result->Find("algorithm");
    const net::JsonValue* cache_hit = result->Find("cache_hit");
    double wall_ms = 0.0;
    if (stats != nullptr) {
      const net::JsonValue* wall = stats->Find("wall_ms");
      if (wall != nullptr) wall_ms = wall->number_value();
    }
    std::printf("%.0f matches in %.3f ms (%s%s)\n",
                rows != nullptr ? rows->number_value() : 0.0, wall_ms,
                StrOr(algorithm, "?").c_str(),
                cache_hit != nullptr && cache_hit->bool_value() ? ", cache hit"
                                                                : "");
  }

  /// \insert/\delete/\flush over the wire: one update-verb round trip.
  /// The per-process unique id makes a shell retry after a torn reply
  /// replay instead of double-applying.
  void Update(const std::string& action, std::istringstream* words) {
    std::string request = "{\"verb\":\"update\",\"id\":";
    net::AppendJsonString(NextId(), &request);
    request += ",\"action\":\"" + action + "\"";
    if (action == "insert") {
      uint64_t parent = 0;
      std::string xml;
      if (!(*words >> parent) || !std::getline(*words, xml) ||
          Trim(xml).empty()) {
        std::printf("usage: \\insert <parent-key> <xml-fragment>\n");
        return;
      }
      request += ",\"parent\":" + std::to_string(parent) + ",\"xml\":";
      net::AppendJsonString(Trim(xml), &request);
    } else if (action == "delete") {
      uint64_t node = 0;
      if (!(*words >> node)) {
        std::printf("usage: \\delete <node-key>\n");
        return;
      }
      request += ",\"node\":" + std::to_string(node);
    }
    request += "}";
    std::optional<net::JsonValue> response = Call(request);
    if (!response) return;
    if (!IsOk(*response)) {
      PrintError(*response);
      return;
    }
    std::printf("%s: +%.0f/-%.0f nodes (%.0f live), %.0f plans invalidated "
                "(scope=%s)\n",
                action.c_str(), Num(*response, "nodes_added"),
                Num(*response, "nodes_removed"), Num(*response, "nodes"),
                Num(*response, "cache_invalidated"),
                Str(*response, "scope").c_str());
  }

  void DrainServer() {
    std::optional<net::JsonValue> response =
        Call("{\"verb\":\"drain\",\"id\":\"d\"}");
    if (!response) return;
    if (!IsOk(*response)) {
      PrintError(*response);
      return;
    }
    std::printf("server draining — new submits will be shed\n");
  }

  void Explain(const std::string& text) {
    std::optional<net::JsonValue> response =
        Call(SubmitRequest("explain", NextId(), text, false));
    if (!response) return;
    if (!IsOk(*response)) {
      PrintError(*response);
      return;
    }
    const net::JsonValue* algorithm = response->Find("algorithm");
    const net::JsonValue* plan = response->Find("plan");
    std::printf("%s plan:\n%s",
                StrOr(algorithm, "?").c_str(), StrOr(plan, "").c_str());
  }

  void Stats() {
    std::optional<net::JsonValue> response =
        Call("{\"verb\":\"stats\",\"id\":\"m\"}");
    if (!response) return;
    const net::JsonValue* text = response->Find("prometheus");
    std::printf("%s", StrOr(text, "").c_str());
  }

  /// Shared field reader for the stats verb's in_flight/slow arrays.
  static double Num(const net::JsonValue& obj, const char* key) {
    const net::JsonValue* v = obj.Find(key);
    return v != nullptr && v->is_number() ? v->number_value() : 0.0;
  }
  static std::string Str(const net::JsonValue& obj, const char* key) {
    const net::JsonValue* v = obj.Find(key);
    return v != nullptr && v->is_string() ? std::string(v->string_value())
                                          : std::string();
  }
  /// The string of `v`, or `absent` when the field is missing.
  static std::string StrOr(const net::JsonValue* v, const char* absent) {
    return v != nullptr ? std::string(v->string_value()) : absent;
  }

  void Top() {
    std::optional<net::JsonValue> response =
        Call("{\"verb\":\"stats\",\"id\":\"t\"}");
    if (!response) return;
    const net::JsonValue* in_flight = response->Find("in_flight");
    if (in_flight == nullptr || !in_flight->is_array() ||
        in_flight->array().empty()) {
      std::printf("no queries in flight\n");
    } else {
      for (const net::JsonValue& q : in_flight->array()) {
        std::printf("  %-16s tenant=%-8s algo=%-7s elapsed=%.1f ms "
                    "live=%.0f bytes\n",
                    Str(q, "query_id").c_str(), Str(q, "tenant").c_str(),
                    Str(q, "optimizer").c_str(), Num(q, "elapsed_ms"),
                    Num(q, "live_bytes"));
      }
    }
    const net::JsonValue* live = response->Find("live_queries");
    if (live != nullptr) {
      std::printf("live (submitted, unconsumed): %.0f\n", live->number_value());
    }
  }

  void Slow(std::istringstream* words) {
    uint64_t n = 10;
    *words >> n;
    if (n == 0) n = 10;
    // The stats verb reuses wait_ms (unused for stats) as the slow-list
    // length.
    std::string request = "{\"verb\":\"stats\",\"id\":\"s\",\"wait_ms\":";
    request += std::to_string(n) + "}";
    std::optional<net::JsonValue> response = Call(request);
    if (!response) return;
    const net::JsonValue* slow = response->Find("slow");
    if (slow == nullptr || !slow->is_array() || slow->array().empty()) {
      std::printf("no slow queries recorded\n");
      return;
    }
    for (const net::JsonValue& rec : slow->array()) {
      const net::JsonValue* ok = rec.Find("ok");
      const std::string verdict = Str(rec, "verdict");
      std::printf("  %-16s %8.1f ms  %.0f rows  %s%s%s\n",
                  Str(rec, "query_id").c_str(), Num(rec, "total_ms"),
                  Num(rec, "actual_rows"),
                  ok != nullptr && ok->bool_value()
                      ? "ok"
                      : Str(rec, "status").c_str(),
                  verdict.empty() ? "" : " verdict=", verdict.c_str());
    }
  }

  void Ping() {
    std::optional<net::JsonValue> response =
        Call("{\"verb\":\"ping\",\"id\":\"p\"}");
    if (!response) return;
    const net::JsonValue* db = response->Find("db");
    const net::JsonValue* nodes = response->Find("nodes");
    std::printf("pong: db=%s nodes=%.0f\n",
                StrOr(db, "(none)").c_str(),
                nodes != nullptr ? nodes->number_value() : 0.0);
  }

  const std::string host_;
  const uint16_t port_;
  net::Client client_;
  std::string algo_ = "dpp";
  uint64_t next_id_ = 1;
};

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--connect" && i + 1 < argc) {
      const std::string target = argv[i + 1];
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants host:port\n");
        return 2;
      }
      const std::string host = target.substr(0, colon);
      const uint16_t port = static_cast<uint16_t>(
          std::strtoul(target.c_str() + colon + 1, nullptr, 10));
      // The client dials lazily (and re-dials once per request on loss);
      // the shell still starts even if the server is momentarily down.
      RemoteShell remote(host, port);
      return remote.Run();
    }
  }
  Shell shell;
  return shell.Run();
}
