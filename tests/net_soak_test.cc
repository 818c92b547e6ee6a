// Sustained-load soak: several client threads hammer one loopback server
// for a few seconds with a mixed submit/poll/cancel/stats workload while
// service.submit and exec.batch failpoints fire at low probability, one
// writer thread inserts, deletes and flushes through the update verb, and
// one churn thread connects, submits, and slams the connection shut in a
// loop. Afterwards: no leaked in-flight slots (live_queries drains to
// zero), every write applied once, counters are monotonic across
// snapshots, and the final export still passes the Prometheus
// conformance checker. A second case restarts the server under load and
// requires every query to reach a definite terminal state. The TSan/ASan
// CI legs run this binary for the sanitizer half of the contract.

#include <gtest/gtest.h>

#include <atomic>
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
#include "query/workload.h"
#include "service/engine.h"

namespace sjos {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

bool OkOf(const JsonValue& v) {
  const JsonValue* ok = v.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

std::string SubmitJson(const std::string& id, const std::string& query,
                       bool use_cache, const std::string& tenant) {
  std::string out = "{\"verb\":\"submit\",\"id\":";
  AppendJsonString(id, &out);
  out += ",\"query\":";
  AppendJsonString(query, &out);
  out += ",\"tenant\":";
  AppendJsonString(tenant, &out);
  if (!use_cache) out += ",\"use_plan_cache\":false";
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

bool DoneOf(const JsonValue& v) {
  const JsonValue* done = v.Find("done");
  return done != nullptr && done->is_bool() && done->bool_value();
}

bool CodeIs(const JsonValue& v, const char* code) {
  const JsonValue* c = v.Find("code");
  return c != nullptr && c->is_string() && c->string_value() == code;
}

std::string UpdateJson(const std::string& id, const std::string& fields) {
  std::string out = "{\"verb\":\"update\",\"id\":";
  AppendJsonString(id, &out);
  out += fields;
  out += "}";
  return out;
}

/// Counter values of one snapshot, keyed by full series name.
std::vector<std::pair<std::string, uint64_t>> CounterValues() {
  std::vector<std::pair<std::string, uint64_t>> values;
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    values.emplace_back(name, value);
  }
  return values;
}

TEST(NetSoakTest, SustainedMixedLoadLeaksNothing) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Enable("service.submit", "prob:0.05")
                  .ok());
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("exec.batch", "delay:1").ok());

  EngineOptions engine_options;
  engine_options.max_in_flight = 3;
  Engine engine(engine_options);
  DatasetScale scale;
  scale.base_nodes = 2'000;
  ASSERT_TRUE(
      engine.OpenDatabase(MakePaperDataset("Pers", scale).value()).ok());

  QueryServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> queries;
  for (const BenchQuery& q : PaperWorkload()) {
    if (q.dataset == "Pers") queries.push_back(q.pattern_text);
  }
  ASSERT_FALSE(queries.empty());

  const auto soak_end = Clock::now() + std::chrono::milliseconds(4'000);
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> injected{0};
  std::atomic<bool> monotonic_ok{true};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> write_errors{0};

  // Steady clients: submit → sometimes cancel → poll to completion.
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Result<Client> connected = Client::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(connected.ok());
      Client client = std::move(connected).value();
      uint64_t seq = 0;
      const std::string tenant = "soak-" + std::to_string(t);
      while (Clock::now() < soak_end) {
        const std::string id =
            tenant + "-" + std::to_string(seq);
        const std::string& query = queries[seq % queries.size()];
        Result<JsonValue> submitted = client.Call(
            SubmitJson(id, query, /*use_cache=*/seq % 3 != 0, tenant));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        if (!OkOf(submitted.value())) {
          shed.fetch_add(1, std::memory_order_relaxed);
          ++seq;
          continue;
        }
        if (seq % 7 == 3) {
          std::string cancel = "{\"verb\":\"cancel\",\"id\":";
          AppendJsonString(id, &cancel);
          cancel += "}";
          ASSERT_TRUE(client.Call(cancel).ok());
        }
        for (;;) {
          Result<JsonValue> polled = client.Call(PollJson(id, 2'000));
          ASSERT_TRUE(polled.ok()) << polled.status().ToString();
          const JsonValue* done = polled.value().Find("done");
          if (done != nullptr && done->is_bool() && !done->bool_value()) {
            continue;
          }
          if (OkOf(polled.value())) {
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            injected.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        if (seq % 11 == 5) {
          ASSERT_TRUE(client.Call("{\"verb\":\"stats\",\"id\":\"s\"}").ok());
        }
        ++seq;
      }
    });
  }

  // Writer: inserts a subtree under the root, re-sends every fifth insert
  // id (it must replay the same bytes), and now and then deletes one
  // inserted subtree, found by a query, or flushes the overlay — so the
  // sanitizer legs race writes against the readers above.
  clients.emplace_back([&] {
    Result<Client> connected = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    Client client = std::move(connected).value();
    auto applied = [&](const Result<JsonValue>& r) {
      const bool ok = r.ok() && OkOf(r.value());
      (ok ? writes : write_errors).fetch_add(1, std::memory_order_relaxed);
    };
    uint64_t seq = 0;
    while (Clock::now() < soak_end) {
      const std::string id = "w-" + std::to_string(seq);
      const std::string insert = UpdateJson(
          id, ",\"action\":\"insert\",\"parent\":0,"
              "\"xml\":\"<zz><yy/></zz>\"");
      ASSERT_TRUE(client.Send(insert).ok());
      Result<std::string> first = client.Receive();
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      applied(ParseJson(first.value()));
      if (seq % 5 == 0) {
        ASSERT_TRUE(client.Send(insert).ok());
        Result<std::string> again = client.Receive();
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        if (again.value() != first.value()) {
          write_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (seq % 4 == 3) {
        // The submit failpoint may fail this read; the delete is then
        // skipped.
        const std::string qid = "wq-" + std::to_string(seq);
        Result<JsonValue> submitted =
            client.Call(SubmitJson(qid, "zz[/yy]", false, "writer"));
        ASSERT_TRUE(submitted.ok());
        Result<JsonValue> polled = client.Call(PollJson(qid, 10'000));
        ASSERT_TRUE(polled.ok());
        const JsonValue* result = polled.value().Find("result");
        const JsonValue* rows =
            result == nullptr ? nullptr : result->Find("rows");
        if (rows != nullptr && !rows->array().empty()) {
          const uint64_t key = static_cast<uint64_t>(
              rows->array()[0].array()[0].number_value());
          applied(client.Call(
              UpdateJson("wd-" + std::to_string(seq),
                         ",\"action\":\"delete\",\"node\":" +
                             std::to_string(key))));
        }
      }
      if (seq % 16 == 15) {
        applied(client.Call(UpdateJson("wf-" + std::to_string(seq),
                                       ",\"action\":\"flush\"")));
      }
      ++seq;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Churn client: submit-and-vanish, exercising cancel-on-disconnect.
  clients.emplace_back([&] {
    uint64_t seq = 0;
    while (Clock::now() < soak_end) {
      Result<Client> connected = Client::Connect("127.0.0.1", server.port());
      if (!connected.ok()) break;
      Client client = std::move(connected).value();
      const std::string id = "churn-" + std::to_string(seq);
      (void)client.Call(
          SubmitJson(id, queries[seq % queries.size()], false, "churn"));
      ++seq;
      // Destructor slams the socket with the query (usually) in flight.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // Counter-monotonicity sampler: every counter must be non-decreasing
  // between consecutive snapshots taken mid-flight.
  clients.emplace_back([&] {
    auto previous = CounterValues();
    while (Clock::now() < soak_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      auto current = CounterValues();
      for (const auto& [name, value] : previous) {
        for (const auto& [now_name, now_value] : current) {
          if (now_name == name && now_value < value) {
            monotonic_ok.store(false, std::memory_order_relaxed);
          }
        }
      }
      previous = std::move(current);
    }
  });

  for (std::thread& t : clients) t.join();

  // Drain: every slot must come back with nothing left in flight.
  const auto drain_deadline = Clock::now() + std::chrono::seconds(15);
  while (server.live_queries() > 0 && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.live_queries(), 0u) << "leaked in-flight slots";
  EXPECT_TRUE(monotonic_ok.load()) << "a counter went backwards";
  EXPECT_GT(completed.load(), 0u) << "soak did no useful work";
  EXPECT_GT(writes.load(), 0u) << "the writer applied nothing";
  EXPECT_EQ(write_errors.load(), 0u)
      << "an update failed or a replay differed from its first reply";

  // The registry survives the abuse in exportable form.
  Status valid =
      ValidatePrometheusText(MetricsRegistry::Global().Snapshot()
                                 .ToPrometheus());
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  std::printf("soak: completed=%llu shed=%llu injected=%llu writes=%llu\n",
              static_cast<unsigned long long>(completed.load()),
              static_cast<unsigned long long>(shed.load()),
              static_cast<unsigned long long>(injected.load()),
              static_cast<unsigned long long>(writes.load()));

  server.Stop();
  FailpointRegistry::Global().DisableAll();
}

/// Drives the submit of `id` to a definite terminal state on a plain
/// Client, across a server restart on `port`. A transport loss re-dials
/// and re-submits the same id (the server attaches to the live query or
/// replays its stored reply); a poll answered NotFound (a new incarnation
/// that never saw the id) re-submits it too. Gives up after 10 s.
Result<JsonValue> RunToTerminal(Client* client, uint16_t port,
                                const std::string& id,
                                const std::string& submit,
                                uint64_t* redials) {
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < give_up) {
    if (!client->connected()) {
      Result<Client> dialed = Client::Connect("127.0.0.1", port);
      if (!dialed.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      *client = std::move(dialed).value();
      ++*redials;
    }
    Result<JsonValue> submitted = client->Call(submit);
    if (!submitted.ok()) {
      client->Close();
      continue;
    }
    if (DoneOf(submitted.value()) || !OkOf(submitted.value())) {
      return submitted;  // a replayed terminal reply, or a refusal
    }
    for (;;) {
      Result<JsonValue> polled = client->Call(PollJson(id, 100));
      if (!polled.ok()) {
        client->Close();
        break;
      }
      if (DoneOf(polled.value())) return polled;
      if (OkOf(polled.value())) continue;  // still running
      if (CodeIs(polled.value(), "NotFound")) break;
      return polled;
    }
  }
  return Status::DeadlineExceeded("query '" + id + "' never finished");
}

// One engine, two server incarnations on the same port: plain clients
// re-dial and re-submit straight through a full Stop()/Start() of the
// serving process, every query reaching a definite terminal state, with
// nothing leaked on either incarnation.
TEST(NetSoakTest, ServerRestartUnderLoadReachesDefiniteTerminalStates) {
  Engine engine;
  DatasetScale scale;
  scale.base_nodes = 2'000;
  ASSERT_TRUE(
      engine.OpenDatabase(MakePaperDataset("Pers", scale).value()).ok());

  auto first = std::make_unique<QueryServer>(&engine, ServerOptions{});
  ASSERT_TRUE(first->Start().ok());
  const uint16_t port = first->port();

  std::vector<std::string> queries;
  for (const BenchQuery& q : PaperWorkload()) {
    if (q.dataset == "Pers") queries.push_back(q.pattern_text);
  }
  ASSERT_FALSE(queries.empty());

  const auto load_end = Clock::now() + std::chrono::milliseconds(3'000);
  std::atomic<uint64_t> completed_before{0};
  std::atomic<uint64_t> completed_after{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> unresolved{0};
  std::atomic<uint64_t> redials{0};
  std::atomic<bool> restarted{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Client client;
      uint64_t seq = 0;
      uint64_t dials = 0;
      const std::string tenant = "restart-" + std::to_string(t);
      while (Clock::now() < load_end) {
        const std::string id = tenant + "-" + std::to_string(seq);
        Result<JsonValue> outcome = RunToTerminal(
            &client, port, id,
            SubmitJson(id, queries[seq % queries.size()], true, tenant),
            &dials);
        if (!outcome.ok()) {
          unresolved.fetch_add(1, std::memory_order_relaxed);
        } else if (OkOf(outcome.value())) {
          (restarted.load(std::memory_order_relaxed) ? completed_after
                                                     : completed_before)
              .fetch_add(1, std::memory_order_relaxed);
        } else {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
        ++seq;
      }
      // The first dial is not a re-dial.
      redials.fetch_add(dials > 0 ? dials - 1 : 0, std::memory_order_relaxed);
    });
  }

  // Mid-load: tear the first incarnation down completely (Stop cancels
  // and drains its in-flight queries), then bind a second one to the
  // SAME port against the same engine.
  std::this_thread::sleep_for(std::chrono::milliseconds(1'200));
  first->Stop();
  EXPECT_EQ(first->live_queries(), 0u) << "first incarnation leaked slots";
  first.reset();
  ServerOptions second_options;
  second_options.port = port;
  QueryServer second(&engine, second_options);
  ASSERT_TRUE(second.Start().ok());
  restarted.store(true, std::memory_order_relaxed);

  for (std::thread& t : workers) t.join();

  const auto drain_deadline = Clock::now() + std::chrono::seconds(15);
  while (second.live_queries() > 0 && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(second.live_queries(), 0u) << "leaked in-flight slots";
  EXPECT_EQ(unresolved.load(), 0u)
      << "a query failed to reach a terminal state across the restart";
  EXPECT_GT(completed_before.load(), 0u) << "no work before the restart";
  EXPECT_GT(completed_after.load(), 0u) << "no work after the restart";
  EXPECT_GT(redials.load(), 0u)
      << "restart happened but no client ever re-dialed";

  std::printf(
      "restart-soak: before=%llu after=%llu refused=%llu redials=%llu\n",
      static_cast<unsigned long long>(completed_before.load()),
      static_cast<unsigned long long>(completed_after.load()),
      static_cast<unsigned long long>(refused.load()),
      static_cast<unsigned long long>(redials.load()));

  second.Stop();
}

}  // namespace
}  // namespace net
}  // namespace sjos
