// Loopback service tests: the submit/poll/cancel lifecycle over real
// sockets, cancel-on-disconnect freeing live slots, result byte-identity
// with the in-process Engine for all five optimizer kinds, the update verb
// (insert/delete/flush, replay by id), reads that run again under a
// consumed id, tenant labels that mint no metric series, and the stats
// verb passing the Prometheus conformance checker.

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

  // The terminal poll consumed the id: its reply went out once, and
  // polling again answers NotFound.
  Result<JsonValue> again = client.Call(PollJson("q1", 0));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(OkOf(again.value()));
  EXPECT_EQ(StringField(again.value(), "code"), "NotFound");

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

TEST_F(ServiceTest, DisconnectCancelsLiveQueriesAndFreesSlots) {
  StartServer();
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
    EXPECT_EQ(server_->live_queries(), 2u);
  }  // abrupt disconnect: both queries must be cancelled and drained

  // The connection thread cancels + waits on its way out; give it a
  // bounded window to unwind.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->live_queries() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->live_queries(), 0u);

  // The server keeps serving new connections.
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
  // execution, and an explicit attached marker so a re-sending client
  // knows its retry landed.
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

TEST_F(ServiceTest, FailedQueryCarriesIdAndVerdictOverTheWire) {
  StartServer();
  Client client = Connect();

  // 20 ms per batch against a 5 ms whole-query budget: the governor kills
  // the query and the error frame must carry its code, verdict and id.
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
  EXPECT_EQ(v.Find("flight"), nullptr);
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
    // client ride-through that attach by id depends on.
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

  // Wait for the teardown to drain the disconnect-cancelled query.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->live_queries() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FailpointRegistry::Global().Disable("exec.batch");

  Client retry = Connect();
  // The teardown removed the id with its never-delivered Cancelled
  // terminal: a poll answers NotFound, telling the client to re-submit.
  Result<JsonValue> ghost = retry.Call(PollJson("orphan", 0));
  ASSERT_TRUE(ghost.ok());
  EXPECT_FALSE(OkOf(ghost.value()));
  EXPECT_EQ(StringField(ghost.value(), "code"), "NotFound");

  // And the re-submit runs the query fresh.
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
  // The teardown cancels a dropped connection's query and removes its id
  // in the same step, then waits for it to unwind. A long batch stall
  // holds that window open; a poll landing inside it must get NotFound,
  // never the undelivered Cancelled.
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

TEST_F(ServiceTest, ReconnectedClientRerunsCompletedId) {
  StartServer();
  const std::string submit = SubmitJson("re-1", "manager[//employee[/name]]");
  Counter& replays = MetricsRegistry::Global().GetCounter(
      "sjos_server_replayed_responses_total");
  const uint64_t replays_before = replays.Value();
  double first_rows = 0.0;
  {
    Client client = Connect();
    ASSERT_TRUE(OkOf(client.Call(submit).value()));
    Result<JsonValue> terminal = client.Call(PollJson("re-1", 20'000));
    ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
    const JsonValue* result = terminal.value().Find("result");
    ASSERT_NE(result, nullptr);
    first_rows = result->Find("row_count")->number_value();
  }  // the connection drops after the result was delivered

  // A re-dialed client re-submits the same id: the read has no side
  // effects, so the server runs it again rather than keeping the reply.
  Client again = Connect();
  Result<JsonValue> resubmitted = again.Call(submit);
  ASSERT_TRUE(resubmitted.ok());
  ASSERT_TRUE(OkOf(resubmitted.value()));
  EXPECT_EQ(resubmitted.value().Find("attached"), nullptr);
  Result<JsonValue> rerun = again.Call(PollJson("re-1", 20'000));
  ASSERT_TRUE(rerun.ok());
  ASSERT_TRUE(OkOf(rerun.value())) << StringField(rerun.value(), "error");
  const JsonValue* result = rerun.value().Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_DOUBLE_EQ(result->Find("row_count")->number_value(), first_rows);

  size_t runs = 0;
  for (const QueryLogRecord& rec : engine_->query_log().Recent(16)) {
    if (rec.query_id == "re-1") ++runs;
  }
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(replays.Value(), replays_before);
  EXPECT_EQ(server_->live_queries(), 0u);
}

/// Number of counter series in the three families that once carried a
/// tenant label.
size_t RequestSeriesCount() {
  size_t n = 0;
  for (const auto& [name, value] : MetricsRegistry::Global().CounterValues()) {
    for (const char* family :
         {"sjos_server_requests_total", "sjos_engine_queries_total",
          "sjos_engine_submits_total"}) {
      if (name.rfind(family, 0) == 0) ++n;
    }
  }
  return n;
}

TEST_F(ServiceTest, TenantNamesMintNoMetricSeries) {
  StartServer();
  Client client = Connect();
  auto run = [&](const std::string& id, const std::string& tenant) {
    std::string extra = ",\"tenant\":";
    AppendJsonString(tenant, &extra);
    ASSERT_TRUE(
        OkOf(client.Call(SubmitJson(id, "employee[/name]", extra)).value()));
    ASSERT_TRUE(OkOf(client.Call(PollJson(id, 20'000)).value()));
  };
  run("warm-0", "tenant-warm");
  run("warm-1", "tenant-warm");
  const size_t series = RequestSeriesCount();
  const size_t all_series = MetricsRegistry::Global().CounterValues().size();

  constexpr int kTenants = 32;
  for (int t = 0; t < kTenants; ++t) {
    run("t-" + std::to_string(t), "tenant-" + std::to_string(t));
  }
  EXPECT_EQ(RequestSeriesCount(), series);
  EXPECT_LT(MetricsRegistry::Global().CounterValues().size(),
            all_series + kTenants);

  // The tenant still reaches the audit record.
  bool logged = false;
  for (const QueryLogRecord& rec : engine_->query_log().Recent(8)) {
    if (rec.query_id == "t-31") logged = rec.tenant == "tenant-31";
  }
  EXPECT_TRUE(logged);
}

std::string UpdateJson(const std::string& id, const std::string& fields) {
  std::string out = "{\"verb\":\"update\",\"id\":";
  AppendJsonString(id, &out);
  out += fields;
  out += "}";
  return out;
}

TEST_F(ServiceTest, UpdateVerbInsertsDeletesFlushesAndReplaysById) {
  StartServer();
  Client client = Connect();
  auto live_nodes = [&] {
    Result<JsonValue> pong = client.Call("{\"verb\":\"ping\",\"id\":\"p\"}");
    EXPECT_TRUE(pong.ok());
    return pong.value().Find("nodes")->number_value();
  };
  // Submits `query` and returns its terminal poll reply.
  int seq = 0;
  auto query = [&](const std::string& text) {
    const std::string id = "uq-" + std::to_string(seq++);
    EXPECT_TRUE(OkOf(client.Call(SubmitJson(id, text)).value()));
    Result<JsonValue> polled = client.Call(PollJson(id, 20'000));
    EXPECT_TRUE(polled.ok());
    EXPECT_TRUE(OkOf(polled.value())) << StringField(polled.value(), "error");
    return std::move(polled).value();
  };
  const double base_nodes = live_nodes();

  // Insert under the root (order key 0).
  const std::string insert = UpdateJson(
      "ins-1",
      ",\"action\":\"insert\",\"parent\":0,\"xml\":\"<zz><yy/></zz>\"");
  ASSERT_TRUE(client.Send(insert).ok());
  Result<std::string> inserted = client.Receive();
  ASSERT_TRUE(inserted.ok());
  Result<JsonValue> parsed = ParseJson(inserted.value());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(OkOf(parsed.value())) << inserted.value();
  EXPECT_EQ(parsed.value().Find("nodes_added")->number_value(), 2.0);
  EXPECT_EQ(live_nodes(), base_nodes + 2);

  // A re-sent id replays the stored bytes and inserts nothing.
  ASSERT_TRUE(client.Send(insert).ok());
  Result<std::string> replayed = client.Receive();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), inserted.value());
  EXPECT_EQ(live_nodes(), base_nodes + 2);

  // A later query sees the inserted subtree.
  JsonValue found = query("zz[/yy]");
  ASSERT_EQ(found.Find("result")->Find("row_count")->number_value(), 1.0);

  // A flush folds the overlay into the base and keeps the subtree.
  Result<JsonValue> flushed =
      client.Call(UpdateJson("flush-1", ",\"action\":\"flush\""));
  ASSERT_TRUE(flushed.ok());
  ASSERT_TRUE(OkOf(flushed.value())) << StringField(flushed.value(), "error");
  EXPECT_EQ(live_nodes(), base_nodes + 2);
  found = query("zz[/yy]");
  const JsonValue* rows = found.Find("result")->Find("rows");
  ASSERT_EQ(rows->array().size(), 1u);
  const uint64_t zz_key =
      static_cast<uint64_t>(rows->array()[0].array()[0].number_value());

  // Deleting the subtree's root removes both nodes.
  Result<JsonValue> deleted = client.Call(UpdateJson(
      "del-1", ",\"action\":\"delete\",\"node\":" + std::to_string(zz_key)));
  ASSERT_TRUE(deleted.ok());
  ASSERT_TRUE(OkOf(deleted.value())) << StringField(deleted.value(), "error");
  EXPECT_EQ(deleted.value().Find("nodes_removed")->number_value(), 2.0);
  EXPECT_EQ(live_nodes(), base_nodes);
  EXPECT_EQ(query("zz[/yy]").Find("result")->Find("row_count")->number_value(),
            0.0);

  // A parent key past the NodeId range is refused, not wrapped to the
  // root.
  Result<JsonValue> wide = client.Call(UpdateJson(
      "ins-2",
      ",\"action\":\"insert\",\"parent\":4294967296,\"xml\":\"<x/>\""));
  ASSERT_TRUE(wide.ok());
  EXPECT_FALSE(OkOf(wide.value()));
  EXPECT_EQ(StringField(wide.value(), "code"), "InvalidArgument");
  EXPECT_EQ(live_nodes(), base_nodes);
}

}  // namespace
}  // namespace net
}  // namespace sjos
