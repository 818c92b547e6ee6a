// Loopback service tests: the submit/poll/cancel lifecycle over real
// sockets, per-tenant quota shedding (shed, never queued), cancel-on-
// disconnect freeing admission slots, result byte-identity with the
// in-process Engine for all five optimizer kinds, and the stats verb
// passing the Prometheus conformance checker.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "net/client.h"
#include "net/json.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "query/pattern_parser.h"
#include "query/workload.h"
#include "service/engine.h"

namespace sjos {
namespace net {
namespace {

Pattern Parse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return std::move(pattern).value();
}

std::string SubmitJson(const std::string& id, const std::string& query,
                       const std::string& extra = "") {
  std::string out = "{\"verb\":\"submit\",\"id\":";
  AppendJsonString(id, &out);
  out += ",\"query\":";
  AppendJsonString(query, &out);
  out += extra;
  out += "}";
  return out;
}

std::string PollJson(const std::string& id, uint64_t wait_ms) {
  std::string out = "{\"verb\":\"poll\",\"id\":";
  AppendJsonString(id, &out);
  out += ",\"wait_ms\":";
  AppendJsonUint(wait_ms, &out);
  out += "}";
  return out;
}

bool OkOf(const JsonValue& v) {
  const JsonValue* ok = v.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

std::string StringField(const JsonValue& v, const char* key) {
  const JsonValue* f = v.Find(key);
  return f != nullptr && f->is_string() ? std::string(f->string_value())
                                        : std::string();
}

class ServiceTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}, size_t engine_workers = 4) {
    EngineOptions engine_options;
    engine_options.max_in_flight = engine_workers;
    engine_ = std::make_unique<Engine>(engine_options);
    DatasetScale scale;
    scale.base_nodes = 2'000;
    ASSERT_TRUE(
        engine_->OpenDatabase(MakePaperDataset("Pers", scale).value()).ok());
    server_ = std::make_unique<QueryServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    FailpointRegistry::Global().DisableAll();
    if (server_) server_->Stop();
  }

  Client Connect() {
    Result<Client> c = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServiceTest, SubmitPollLifecycle) {
  StartServer();
  Client client = Connect();

  Result<JsonValue> submitted =
      client.Call(SubmitJson("q1", "manager[//employee[/name]]"));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(OkOf(submitted.value()));
  EXPECT_TRUE(submitted.value().Find("queued")->bool_value());

  Result<JsonValue> polled = client.Call(PollJson("q1", 5'000));
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
  ASSERT_TRUE(polled.value().Find("done")->bool_value());
  const JsonValue* result = polled.value().Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->Find("row_count")->number_value(), 0.0);
  EXPECT_FALSE(StringField(*result, "algorithm").empty());

  // The terminal poll moved the response to the replay ring: polling
  // again replays the same terminal instead of answering NotFound.
  Result<JsonValue> again = client.Call(PollJson("q1", 0));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(OkOf(again.value()));
  ASSERT_TRUE(again.value().Find("done")->bool_value());
  const JsonValue* replayed = again.value().Find("result");
  ASSERT_NE(replayed, nullptr);
  EXPECT_DOUBLE_EQ(replayed->Find("row_count")->number_value(),
                   result->Find("row_count")->number_value());

  EXPECT_EQ(server_->live_queries(), 0u);
}

TEST_F(ServiceTest, CancelShortensSlowQuery) {
  StartServer();
  // Every batch stalls 50 ms, so the cancel lands mid-execution.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:50").ok());
  Client client = Connect();

  ASSERT_TRUE(OkOf(client
                       .Call(SubmitJson(
                           "slow", "manager[//employee[/name]][//department]",
                           ",\"use_plan_cache\":false"))
                       .value()));
  Result<JsonValue> cancelled =
      client.Call("{\"verb\":\"cancel\",\"id\":\"slow\"}");
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(OkOf(cancelled.value()));

  Result<JsonValue> final_poll = client.Call(PollJson("slow", 10'000));
  ASSERT_TRUE(final_poll.ok());
  EXPECT_FALSE(OkOf(final_poll.value()));
  EXPECT_EQ(StringField(final_poll.value(), "code"), "Cancelled");
  const std::string verdict = StringField(final_poll.value(), "verdict");
  EXPECT_TRUE(verdict == "cancelled" || verdict == "cancelled-before-dispatch")
      << verdict;
  EXPECT_EQ(server_->live_queries(), 0u);
}

TEST_F(ServiceTest, TenantOverInFlightQuotaIsShedNotQueued) {
  ServerOptions options;
  options.default_quota.max_in_flight = 1;
  StartServer(options);
  // Every index scan stalls 100 ms when it opens: a fixed stall per query,
  // whatever the batch size, that keeps "a" in flight.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.scan", "delay:100").ok());
  Client client = Connect();

  ASSERT_TRUE(OkOf(client
                       .Call(SubmitJson("a", "manager[//employee[/name]]",
                                        ",\"use_plan_cache\":false"))
                       .value()));

  // Second submit for the same (default) tenant: an immediate shed with a
  // retry hint — not queued behind the first.
  Result<JsonValue> shed =
      client.Call(SubmitJson("b", "manager[//employee[/name]]"));
  ASSERT_TRUE(shed.ok());
  EXPECT_FALSE(OkOf(shed.value()));
  EXPECT_EQ(StringField(shed.value(), "code"), "ResourceExhausted");
  ASSERT_NE(shed.value().Find("retry_after_ms"), nullptr);
  EXPECT_GT(shed.value().Find("retry_after_ms")->number_value(), 0.0);

  // A different tenant has its own bucket and is admitted.
  Result<JsonValue> other = client.Call(SubmitJson(
      "c", "manager[//employee[/name]]", ",\"tenant\":\"other\""));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(OkOf(other.value())) << StringField(other.value(), "error");

  // Draining the first frees the slot; the tenant can submit again.
  ASSERT_TRUE(client.Call(PollJson("a", 20'000)).ok());
  ASSERT_TRUE(client.Call(PollJson("c", 20'000)).ok());
  FailpointRegistry::Global().DisableAll();
  Result<JsonValue> after =
      client.Call(SubmitJson("d", "manager[//employee[/name]]"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(OkOf(after.value()));
  ASSERT_TRUE(client.Call(PollJson("d", 20'000)).ok());
}

TEST_F(ServiceTest, TenantOverQpsQuotaIsShedWithRetryHint) {
  ServerOptions options;
  options.default_quota.qps = 1.0;
  StartServer(options);
  Client client = Connect();

  Result<JsonValue> first =
      client.Call(SubmitJson("a", "manager[//employee[/name]]"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(OkOf(first.value()));

  Result<JsonValue> second =
      client.Call(SubmitJson("b", "manager[//employee[/name]]"));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(OkOf(second.value()));
  EXPECT_EQ(StringField(second.value(), "code"), "ResourceExhausted");
  EXPECT_GT(second.value().Find("retry_after_ms")->number_value(), 0.0);

  ASSERT_TRUE(client.Call(PollJson("a", 20'000)).ok());
}

TEST_F(ServiceTest, DisconnectCancelsLiveQueriesAndFreesQuota) {
  ServerOptions options;
  options.default_quota.max_in_flight = 2;
  StartServer(options);
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:50").ok());

  {
    Client client = Connect();
    ASSERT_TRUE(OkOf(client
                         .Call(SubmitJson(
                             "gone1", "manager[//employee[/name]]",
                             ",\"use_plan_cache\":false"))
                         .value()));
    ASSERT_TRUE(OkOf(client
                         .Call(SubmitJson(
                             "gone2",
                             "manager[//employee[/name]][//department]",
                             ",\"use_plan_cache\":false"))
                         .value()));
    EXPECT_EQ(server_->quotas().TotalInFlight(), 2u);
  }  // abrupt disconnect: both queries must be cancelled and drained

  // The connection thread cancels + waits on its way out; give it a
  // bounded window to unwind.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server_->live_queries() > 0 ||
          server_->quotas().TotalInFlight() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->live_queries(), 0u);
  EXPECT_EQ(server_->quotas().TotalInFlight(), 0u);

  // The freed slots are immediately usable by a new connection.
  Client fresh = Connect();
  Result<JsonValue> next = fresh.Call(
      SubmitJson("fresh", "manager[//employee[/name]]"));
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(OkOf(next.value())) << StringField(next.value(), "error");
  ASSERT_TRUE(fresh.Call(PollJson("fresh", 20'000)).ok());
}

TEST_F(ServiceTest, WireResultsMatchInProcessForAllOptimizers) {
  StartServer();
  Client client = Connect();
  const std::string query = "manager[//employee[/name]][//department]";
  Pattern pattern = Parse(query);

  for (const char* algo : {"dp", "dpp", "dpap-eb", "dpap-ld", "fp"}) {
    SCOPED_TRACE(algo);

    // In-process reference, bypassing the wire entirely.
    QueryOptions options;
    ASSERT_TRUE(ParseOptimizerKind(algo).ok());
    options.optimizer = ParseOptimizerKind(algo).value();
    options.use_plan_cache = false;
    QueryHandle handle = engine_->Submit(pattern, options);
    const Result<QueryResult>& expected = handle.Wait();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const std::vector<std::vector<NodeId>> reference =
        expected.value().tuples.Canonical();

    // Same query over the socket.
    const std::string id = std::string("bi-") + algo;
    std::string extra = ",\"use_plan_cache\":false,\"optimizer\":";
    AppendJsonString(algo, &extra);
    ASSERT_TRUE(OkOf(client.Call(SubmitJson(id, query, extra)).value()));
    Result<JsonValue> polled = client.Call(PollJson(id, 30'000));
    ASSERT_TRUE(polled.ok());
    ASSERT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
    const JsonValue* result = polled.value().Find("result");
    ASSERT_NE(result, nullptr);
    const JsonValue* rows = result->Find("rows");
    ASSERT_NE(rows, nullptr);

    // Byte-identity via the canonical form: same row count, same ids in
    // the same order.
    ASSERT_EQ(rows->array().size(), reference.size());
    for (size_t r = 0; r < reference.size(); ++r) {
      const std::span<const JsonValue> row = rows->array()[r].array();
      ASSERT_EQ(row.size(), reference[r].size());
      for (size_t c = 0; c < reference[r].size(); ++c) {
        EXPECT_EQ(static_cast<uint64_t>(row[c].number_value()),
                  static_cast<uint64_t>(reference[r][c]));
      }
    }
  }
}

TEST_F(ServiceTest, StatsVerbExportPassesConformance) {
  StartServer();
  Client client = Connect();
  // Exercise the engine a little so the export has series to validate.
  ASSERT_TRUE(OkOf(
      client.Call(SubmitJson("warm", "manager[//employee[/name]]")).value()));
  ASSERT_TRUE(client.Call(PollJson("warm", 20'000)).ok());

  Result<JsonValue> stats = client.Call("{\"verb\":\"stats\",\"id\":\"s\"}");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(OkOf(stats.value()));
  const JsonValue* text = stats.value().Find("prometheus");
  ASSERT_NE(text, nullptr);
  ASSERT_TRUE(text->is_string());
  Status valid = ValidatePrometheusText(text->string_value());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(text->string_value().find("sjos_server_requests_total"),
            std::string::npos);
}

TEST_F(ServiceTest, ClientSuppliedIdRoundTripsThroughResultAndAuditLog) {
  StartServer();
  Client client = Connect();

  // The wire id IS the query's identity: the done frame echoes it as
  // query_id and the server-side audit log records it verbatim.
  ASSERT_TRUE(OkOf(
      client.Call(SubmitJson("wire-id-9", "manager[//employee[/name]]"))
          .value()));
  Result<JsonValue> polled = client.Call(PollJson("wire-id-9", 20'000));
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
  const JsonValue* result = polled.value().Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(StringField(*result, "query_id"), "wire-id-9");

  bool logged = false;
  for (const QueryLogRecord& rec : engine_->query_log().Recent(16)) {
    if (rec.query_id == "wire-id-9") {
      logged = true;
      EXPECT_TRUE(rec.ok);
      // Wire submissions parse text server-side; the phase is recorded.
      EXPECT_GT(rec.parse_ms, 0.0);
    }
  }
  EXPECT_TRUE(logged);
}

TEST_F(ServiceTest, DuplicateIdAttachesInsteadOfDoubleExecuting) {
  StartServer();
  Client client = Connect();

  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:5").ok());
  ASSERT_TRUE(OkOf(
      client.Call(SubmitJson("dup", "manager[//employee[/name]]")).value()));
  // Idempotent re-submit: attaches to the live query — no second
  // execution, no extra quota charge, and an explicit attached marker so
  // a resilient client knows its retry landed.
  Result<JsonValue> second =
      client.Call(SubmitJson("dup", "manager[//employee[/name]]"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(OkOf(second.value()));
  const JsonValue* attached = second.value().Find("attached");
  ASSERT_NE(attached, nullptr);
  EXPECT_TRUE(attached->bool_value());
  EXPECT_EQ(server_->live_queries(), 1u);  // still one execution
  FailpointRegistry::Global().Disable("exec.batch");

  // The original query under the id is unharmed.
  Result<JsonValue> polled = client.Call(PollJson("dup", 20'000));
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
}

TEST_F(ServiceTest, FailedQueryCarriesIdAndFlightOverTheWire) {
  StartServer();
  Client client = Connect();

  // 20 ms per batch against a 5 ms whole-query budget: the governor kills
  // the query and the error frame must carry the id and flight recorder.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:20").ok());
  ASSERT_TRUE(OkOf(client
                       .Call(SubmitJson("doomed-wire",
                                        "manager[//employee[/name]]"
                                        "[//department]",
                                        ",\"deadline_ms\":5"))
                       .value()));
  Result<JsonValue> polled = client.Call(PollJson("doomed-wire", 20'000));
  FailpointRegistry::Global().Disable("exec.batch");
  ASSERT_TRUE(polled.ok());
  const JsonValue& v = polled.value();
  EXPECT_FALSE(OkOf(v));
  EXPECT_EQ(StringField(v, "code"), "DeadlineExceeded");
  EXPECT_EQ(StringField(v, "verdict"), "deadline");
  EXPECT_EQ(StringField(v, "query_id"), "doomed-wire");
  const JsonValue* flight = v.Find("flight");
  ASSERT_NE(flight, nullptr);
  ASSERT_TRUE(flight->is_object());
  ASSERT_NE(flight->Find("spans"), nullptr);
  EXPECT_FALSE(flight->Find("spans")->array().empty());
}

TEST_F(ServiceTest, StatsVerbReportsInFlightAndSlowQueries) {
  StartServer();
  Client client = Connect();

  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:10").ok());
  ASSERT_TRUE(OkOf(
      client.Call(SubmitJson("watched", "manager[//employee[/name]]"))
          .value()));

  // Poll stats until the query shows up in the in_flight array (it may
  // not have been dispatched yet on the first ask).
  bool seen = false;
  for (int i = 0; i < 200 && !seen; ++i) {
    Result<JsonValue> stats =
        client.Call("{\"verb\":\"stats\",\"id\":\"s\"}");
    ASSERT_TRUE(stats.ok());
    const JsonValue* in_flight = stats.value().Find("in_flight");
    ASSERT_NE(in_flight, nullptr);
    ASSERT_TRUE(in_flight->is_array());
    for (const JsonValue& q : in_flight->array()) {
      if (StringField(q, "query_id") == "watched") seen = true;
    }
    if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FailpointRegistry::Global().Disable("exec.batch");
  ASSERT_TRUE(client.Call(PollJson("watched", 20'000)).ok());
  EXPECT_TRUE(seen) << "query never appeared in stats in_flight";

  // The slow array is served from the engine's slow ring.
  Result<JsonValue> stats = client.Call("{\"verb\":\"stats\",\"id\":\"s2\"}");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* slow = stats.value().Find("slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_TRUE(slow->is_array());
}

TEST_F(ServiceTest, ExplainReturnsPlanWithoutExecuting) {
  StartServer();
  Client client = Connect();
  Result<JsonValue> explained = client.Call(
      "{\"verb\":\"explain\",\"id\":\"e\",\"query\":"
      "\"manager[//employee[/name]]\",\"optimizer\":\"dp\"}");
  ASSERT_TRUE(explained.ok());
  ASSERT_TRUE(OkOf(explained.value()))
      << StringField(explained.value(), "error");
  EXPECT_FALSE(StringField(explained.value(), "plan").empty());
  EXPECT_EQ(server_->live_queries(), 0u);
}

TEST_F(ServiceTest, DrainShedsNewSubmitsAndFinishesInFlight) {
  StartServer();
  // Every index scan stalls when it opens, so the query is still in flight
  // when the drain begins, whatever the batch size.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.scan", "delay:50").ok());
  Client client = Connect();
  ASSERT_TRUE(OkOf(client
                       .Call(SubmitJson("riding", "manager[//employee[/name]]",
                                        ",\"use_plan_cache\":false"))
                       .value()));

  server_->BeginDrain();
  EXPECT_TRUE(server_->draining());

  // New work is shed with an explicit hint, not queued and not dropped.
  Result<JsonValue> late =
      client.Call(SubmitJson("late", "manager[//employee[/name]]"));
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(OkOf(late.value()));
  EXPECT_EQ(StringField(late.value(), "code"), "Unavailable");
  ASSERT_NE(late.value().Find("retry_after_ms"), nullptr);
  EXPECT_GT(late.value().Find("retry_after_ms")->number_value(), 0.0);

  // The in-flight query still completes and its result is collectible
  // over the surviving connection.
  Result<JsonValue> polled = client.Call(PollJson("riding", 20'000));
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
  FailpointRegistry::Global().Disable("exec.scan");

  // The drain runs to completion on its own.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (!server_->drained() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(server_->drained());
  EXPECT_EQ(server_->live_queries(), 0u);

  // A new connection is refused (listener is down).
  Result<Client> refused = Client::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(refused.ok());
}

TEST_F(ServiceTest, DrainDeadlineCancelsStragglers) {
  StartServer();
  // Every batch stalls 200 ms — far past the 100 ms drain deadline, so
  // the drain must cancel the query rather than wait it out.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:200").ok());
  Client client = Connect();
  ASSERT_TRUE(OkOf(client
                       .Call(SubmitJson("straggler",
                                        "manager[//employee[/name]]"
                                        "[//department]",
                                        ",\"use_plan_cache\":false"))
                       .value()));

  server_->Drain(/*deadline_ms=*/100);
  EXPECT_TRUE(server_->drained());
  EXPECT_EQ(server_->live_queries(), 0u);  // cancelled AND drained
  FailpointRegistry::Global().Disable("exec.batch");
}

TEST_F(ServiceTest, PollFromSecondConnectionTransfersOwnership) {
  StartServer();
  // Every index scan stalls when it opens, so the query is still in flight
  // when the submitter disconnects, whatever the batch size.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.scan", "delay:50").ok());

  Client taker = Connect();
  {
    Client submitter = Connect();
    ASSERT_TRUE(OkOf(submitter
                         .Call(SubmitJson("handoff",
                                          "manager[//employee[/name]]",
                                          ",\"use_plan_cache\":false"))
                         .value()));
    // One poll from the second connection adopts the query, so the
    // submitter's disconnect below must NOT cancel it — the reconnected-
    // client ride-through the resilient client depends on.
    Result<JsonValue> adopt = taker.Call(PollJson("handoff", 0));
    ASSERT_TRUE(adopt.ok());
    ASSERT_TRUE(OkOf(adopt.value()))
        << StringField(adopt.value(), "error");
  }  // submitter disconnects abruptly

  Result<JsonValue> final_poll = taker.Call(PollJson("handoff", 20'000));
  FailpointRegistry::Global().Disable("exec.scan");
  ASSERT_TRUE(final_poll.ok());
  ASSERT_TRUE(OkOf(final_poll.value()))
      << StringField(final_poll.value(), "error");
  ASSERT_TRUE(final_poll.value().Find("done")->bool_value());
  const JsonValue* result = final_poll.value().Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->Find("row_count")->number_value(), 0.0);
}

TEST_F(ServiceTest, DisconnectCancelledQueryRerunsOnResubmit) {
  StartServer();
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:20").ok());
  {
    Client doomed = Connect();
    ASSERT_TRUE(OkOf(doomed
                         .Call(SubmitJson("orphan",
                                          "manager[//employee[/name]]",
                                          ",\"use_plan_cache\":false"))
                         .value()));
  }  // disconnect cancels the still-owned query

  // Wait for the teardown to record the disconnect-cancelled terminal.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->live_queries() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FailpointRegistry::Global().Disable("exec.batch");

  Client retry = Connect();
  // A poll must NOT replay the never-delivered Cancelled terminal: it
  // answers NotFound, telling a resilient client to re-submit.
  Result<JsonValue> ghost = retry.Call(PollJson("orphan", 0));
  ASSERT_TRUE(ghost.ok());
  EXPECT_FALSE(OkOf(ghost.value()));
  EXPECT_EQ(StringField(ghost.value(), "code"), "NotFound");

  // And the re-submit runs the query fresh instead of replaying.
  ASSERT_TRUE(OkOf(
      retry.Call(SubmitJson("orphan", "manager[//employee[/name]]"))
          .value()));
  Result<JsonValue> polled = retry.Call(PollJson("orphan", 20'000));
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
  const JsonValue* result = polled.value().Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->Find("row_count")->number_value(), 0.0);
}

TEST_F(ServiceTest, PollWhileDisconnectCancelUnwindsAnswersNotFound) {
  // The teardown cancels a dropped connection's query, then waits for it
  // to unwind before parking its terminal in the replay ring. A long batch
  // stall holds that window open; a poll landing inside it must get the
  // same NotFound the ring gives, never the undelivered Cancelled.
  StartServer();
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:1500").ok());
  {
    Client doomed = Connect();
    ASSERT_TRUE(OkOf(doomed
                         .Call(SubmitJson("limbo",
                                          "manager[//employee[/name]]",
                                          ",\"use_plan_cache\":false"))
                         .value()));
    // Past dispatch, so the disconnect cancels a running query.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine_->InFlightQueries().empty() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(engine_->InFlightQueries().size(), 1u);
  }  // disconnect: the teardown cancels "limbo", which then sits in a stall

  // Let the teardown's cancel land; the stall keeps the query unwinding.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Client poller = Connect();
  Result<JsonValue> ghost = poller.Call(PollJson("limbo", 5'000));
  ASSERT_TRUE(ghost.ok());
  EXPECT_FALSE(OkOf(ghost.value()));
  EXPECT_EQ(StringField(ghost.value(), "code"), "NotFound");
  FailpointRegistry::Global().Disable("exec.batch");

  // The re-submit runs it fresh.
  ASSERT_TRUE(OkOf(
      poller.Call(SubmitJson("limbo", "manager[//employee[/name]]"))
          .value()));
  Result<JsonValue> polled = poller.Call(PollJson("limbo", 20'000));
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
  const JsonValue* result = polled.value().Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->Find("row_count")->number_value(), 0.0);
}

TEST_F(ServiceTest, IdleConnectionIsReapedBySlowLorisDefense) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);

  Client idle = Connect();
  // Say nothing. The reaper must answer with a DeadlineExceeded notice
  // and close — and the server must keep serving everyone else.
  Result<std::string> notice = idle.Receive();
  ASSERT_TRUE(notice.ok()) << notice.status().ToString();
  Result<JsonValue> parsed = ParseJson(notice.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(OkOf(parsed.value()));
  EXPECT_EQ(StringField(parsed.value(), "code"), "DeadlineExceeded");
  Result<std::string> eof = idle.Receive();
  EXPECT_FALSE(eof.ok());  // closed after the notice

  Client fresh = Connect();
  Result<JsonValue> pong = fresh.Call("{\"verb\":\"ping\",\"id\":\"p\"}");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(OkOf(pong.value()));
}

TEST_F(ServiceTest, ResilientClientRidesReconnectAndReplay) {
  StartServer();
  // In-process end-to-end over the real socket: run a query through
  // ResilientClient::Execute, then force a reconnect by closing the
  // client side and execute again — the second id is fresh, the first
  // replays from the ring through the new connection.
  ResilientClient client("127.0.0.1", server_->port());
  const std::string submit1 =
      SubmitJson("res-1", "manager[//employee[/name]]");
  Result<JsonValue> first = client.Execute("res-1", submit1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(OkOf(first.value()));
  const double rows =
      first.value().Find("result")->Find("row_count")->number_value();

  client.Close();  // simulate a dropped connection
  Result<JsonValue> replay = client.Execute("res-1", submit1);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(OkOf(replay.value()));
  EXPECT_DOUBLE_EQ(
      replay.value().Find("result")->Find("row_count")->number_value(), rows);
  EXPECT_GE(client.stats().reconnects, 1u);
}

}  // namespace
}  // namespace net
}  // namespace sjos
