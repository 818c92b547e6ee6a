// End-to-end observability: the HTTP scrape endpoints (/metrics validated
// as Prometheus text, /healthz, /statusz) and the ISSUE's traceability
// contract — a single query with a client-chosen id is followable through
// trace spans (args:{qid}), the audit JSONL, /statusz while in flight, and
// QueryErrorInfo when a 5 ms deadline kills it.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "net/http.h"
#include "net/json.h"
#include "query/pattern_parser.h"
#include "service/engine.h"
#include "xml/generators/pers_gen.h"

namespace sjos {
namespace {

Pattern Parse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return std::move(pattern).value();
}

Database SmallPers(uint64_t seed = 7) {
  PersGenConfig config;
  config.target_nodes = 900;
  config.seed = seed;
  return Database::Open(GeneratePers(config).value());
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct HttpResponse {
  int status = 0;
  std::string head;  // status line + headers
  std::string body;
};

/// One-shot raw HTTP exchange against 127.0.0.1:`port` — the server speaks
/// HTTP/1.0 with Connection: close, so reading to EOF frames the response.
HttpResponse Fetch(uint16_t port, const std::string& request) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return response;
  response.head = raw.substr(0, split);
  response.body = raw.substr(split + 4);
  // "HTTP/1.0 200 OK"
  if (response.head.size() > 12) {
    response.status = std::atoi(response.head.c_str() + 9);
  }
  return response;
}

HttpResponse Get(uint16_t port, const std::string& path) {
  return Fetch(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

TEST(ObservabilityTest, HttpEndpointsServeMetricsHealthAndStatus) {
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  ASSERT_TRUE(engine.Query(Parse("employee[/name]")).ok());

  net::ObservabilityServer server(&engine);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const HttpResponse metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.head.find("version=0.0.4"), std::string::npos)
      << metrics.head;
  EXPECT_TRUE(ValidatePrometheusText(metrics.body).ok());
  EXPECT_NE(metrics.body.find("sjos_engine_queries_total"),
            std::string::npos);
  // The scrape itself is accounted.
  const HttpResponse again = Get(server.port(), "/metrics");
  EXPECT_NE(again.body.find("sjos_http_requests_total"), std::string::npos);

  const HttpResponse health = Get(server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse statusz = Get(server.port(), "/statusz");
  EXPECT_EQ(statusz.status, 200);
  Result<net::JsonValue> parsed = net::ParseJson(statusz.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << statusz.body;
  const net::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Find("in_flight"), nullptr);
  EXPECT_TRUE(v.Find("in_flight")->is_array());
  ASSERT_NE(v.Find("queries_logged"), nullptr);
  EXPECT_GE(v.Find("queries_logged")->number_value(), 1.0);

  EXPECT_EQ(Get(server.port(), "/nope").status, 404);
  EXPECT_EQ(Fetch(server.port(), "POST /metrics HTTP/1.0\r\n\r\n").status,
            405);
  EXPECT_EQ(Fetch(server.port(), "garbage\r\n\r\n").status, 400);

  server.Stop();
}

TEST(ObservabilityTest, SuccessfulQueryIdFlowsToTraceAndAuditLog) {
  const std::string trace_path = TempPath("observability_trace.json");
  std::remove(trace_path.c_str());

  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());

  QueryOptions options;
  options.query_id = "trace-me-42";
  ASSERT_TRUE(Tracer::Global().Start(trace_path).ok());
  Result<QueryResult> r = engine.Query(Parse("employee[/name]"), options);
  ASSERT_TRUE(Tracer::Global().Stop().ok());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().query_id, "trace-me-42");

  // Every span the query recorded — optimizer and executor alike — is
  // tagged with the id for Perfetto filtering.
  const std::string trace = ReadFileOrEmpty(trace_path);
  EXPECT_NE(trace.find("\"args\":{\"qid\":\"trace-me-42\"}"),
            std::string::npos)
      << trace;

  // The audit ring has the record under the same id.
  bool found = false;
  for (const QueryLogRecord& rec : engine.query_log().Recent(16)) {
    if (rec.query_id != "trace-me-42") continue;
    found = true;
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.status_code, "OK");
    EXPECT_GT(rec.actual_rows, 0u);
    EXPECT_GT(rec.total_ms, 0.0);
    EXPECT_TRUE(rec.flight.empty());
  }
  EXPECT_TRUE(found);
  std::remove(trace_path.c_str());
}

// A submitted query runs on an Engine worker whose thread has no ambient
// query id; the worker's pool.task span must still carry the query's id.
TEST(ObservabilityTest, SubmittedQueryPoolTaskSpanCarriesItsId) {
  const std::string trace_path = TempPath("observability_pool_task.json");
  std::remove(trace_path.c_str());
  ASSERT_TRUE(Tracer::Global().Start(trace_path).ok());
  {
    Engine engine;
    ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
    QueryOptions options;
    options.query_id = "pooled-9";
    QueryHandle handle = engine.Submit(Parse("employee[/name]"), options);
    EXPECT_TRUE(handle.Wait().ok());
    // Destroying the engine joins its workers, so the task's span (closed
    // after the handle completes) is recorded before the trace stops.
  }
  ASSERT_TRUE(Tracer::Global().Stop().ok());

  const std::string trace = ReadFileOrEmpty(trace_path);
  std::remove(trace_path.c_str());
  Result<net::JsonValue> parsed = net::ParseJson(trace);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const net::JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t pool_tasks = 0;
  for (const net::JsonValue& ev : events->array()) {
    const net::JsonValue* name = ev.Find("name");
    if (name == nullptr || name->string_value() != "pool.task") continue;
    ++pool_tasks;
    const net::JsonValue* args = ev.Find("args");
    ASSERT_NE(args, nullptr) << trace;
    ASSERT_NE(args->Find("qid"), nullptr) << trace;
    EXPECT_EQ(args->Find("qid")->string_value(), "pooled-9");
  }
  EXPECT_EQ(pool_tasks, 1u) << trace;
  EXPECT_NE(trace.find("\"args\":{\"qid\":\"pooled-9\"}"),
            std::string::npos);
}

TEST(ObservabilityTest, InFlightQueryVisibleInStatuszUnderItsId) {
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  net::ObservabilityServer server(&engine);
  ASSERT_TRUE(server.Start().ok());

  // Slow every batch so the query observably stays in flight.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:10").ok());
  QueryOptions options;
  options.query_id = "inflight-7";
  QueryHandle handle =
      engine.Submit(Parse("manager[//employee[/name]][//department]"),
                    options);
  EXPECT_EQ(handle.query_id(), "inflight-7");

  bool seen = false;
  for (int i = 0; i < 200 && !seen && !handle.Done(); ++i) {
    const HttpResponse statusz = Get(server.port(), "/statusz");
    Result<net::JsonValue> parsed = net::ParseJson(statusz.body);
    ASSERT_TRUE(parsed.ok()) << statusz.body;
    const net::JsonValue* in_flight = parsed.value().Find("in_flight");
    ASSERT_NE(in_flight, nullptr);
    for (const net::JsonValue& q : in_flight->array()) {
      const net::JsonValue* id = q.Find("query_id");
      if (id != nullptr && id->string_value() == "inflight-7") {
        seen = true;
        const net::JsonValue* elapsed = q.Find("elapsed_ms");
        ASSERT_NE(elapsed, nullptr);
        EXPECT_GE(elapsed->number_value(), 0.0);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FailpointRegistry::Global().Disable("exec.batch");
  EXPECT_TRUE(handle.Wait().ok());
  EXPECT_TRUE(seen) << "query never appeared in /statusz in_flight";

  // Once done it leaves the registry.
  const HttpResponse statusz = Get(server.port(), "/statusz");
  EXPECT_EQ(statusz.body.find("inflight-7"), std::string::npos);
  server.Stop();
}

TEST(ObservabilityTest, DeadlineKilledQueryCarriesIdAndFlightRecord) {
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());

  // A 5 ms whole-query budget against 20 ms-per-batch execution: the
  // governor must kill it with DeadlineExceeded.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:20").ok());
  QueryOptions options;
  options.query_id = "doomed-1";
  options.deadline_ms = 5;
  QueryErrorInfo info;
  Result<QueryResult> r =
      engine.Query(Parse("manager[//employee[/name]][//department]"), options,
                   &info);
  FailpointRegistry::Global().Disable("exec.batch");

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(info.query_id, "doomed-1");
  EXPECT_EQ(info.verdict, "deadline");

  // Flight recorder: phase spans plus the counters that moved.
  ASSERT_FALSE(info.flight.empty());
  ASSERT_FALSE(info.flight.spans.empty());
  EXPECT_EQ(info.flight.spans.front().name, "plan");
  EXPECT_FALSE(info.flight.counter_deltas.empty());
  Result<net::JsonValue> flight_json = net::ParseJson(info.flight.ToJson());
  ASSERT_TRUE(flight_json.ok()) << info.flight.ToJson();

  // The same failure (id, verdict, flight) landed in the audit log.
  bool found = false;
  for (const QueryLogRecord& rec : engine.query_log().Recent(16)) {
    if (rec.query_id != "doomed-1") continue;
    found = true;
    EXPECT_FALSE(rec.ok);
    EXPECT_EQ(rec.status_code, "DeadlineExceeded");
    EXPECT_EQ(rec.verdict, "deadline");
    EXPECT_FALSE(rec.flight.empty());
  }
  EXPECT_TRUE(found);
}

TEST(ObservabilityTest, EngineAssignsIdsWhenClientSuppliesNone) {
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Result<QueryResult> r = engine.Query(Parse("employee[/name]"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().query_id.rfind("q-", 0), 0u) << r.value().query_id;

  QueryHandle handle = engine.Submit(Parse("employee[/name]"));
  EXPECT_EQ(handle.query_id().rfind("q-", 0), 0u) << handle.query_id();
  ASSERT_TRUE(handle.Wait().ok());
  // The handle's id is stable and matches the result's.
  EXPECT_EQ(handle.Wait().value().query_id, handle.query_id());
}

}  // namespace
}  // namespace sjos
