// QueryLog: JSONL well-formedness of audit records, in-memory recent/slow
// rings, background-writer file sinks, slow-query promotion, and the
// bounded pending ring (oldest records dropped — never a blocked query
// thread — when the writer falls behind, exercised deterministically via
// the querylog.write delay failpoint).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "net/json.h"
#include "service/query_log.h"

namespace sjos {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

QueryLogRecord MakeRecord(const std::string& id, double total_ms) {
  QueryLogRecord rec;
  rec.query_id = id;
  rec.tenant = "acme";
  rec.fingerprint = "fp|1|dpp";
  rec.optimizer = "dpp";
  rec.status_code = "OK";
  rec.est_rows = 100;
  rec.actual_rows = 120;
  rec.max_q_error = 1.2;
  rec.peak_live_bytes = 4096;
  rec.batches = 3;
  rec.parse_ms = 0.05;
  rec.optimize_ms = 1.5;
  rec.execute_ms = total_ms - 1.5;
  rec.total_ms = total_ms;
  return rec;
}

TEST(QueryLogTest, RecordSerializesToParseableJson) {
  QueryLogRecord rec = MakeRecord("q-\"quoted\"\n", 12.5);
  rec.verdict = "deadline";
  rec.ok = false;
  rec.status_code = "DeadlineExceeded";
  rec.flight.spans.push_back({"plan", 0.0, 1.5});
  rec.flight.spans.push_back({"execute", 1.5, 11.0});
  rec.flight.counter_deltas.emplace_back("sjos_engine_queries_total", 1);

  const std::string line = rec.ToJsonl();
  Result<net::JsonValue> parsed = net::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  const net::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("query_id")->string_value(), "q-\"quoted\"\n");
  EXPECT_EQ(v.Find("tenant")->string_value(), "acme");
  EXPECT_EQ(v.Find("status")->string_value(), "DeadlineExceeded");
  EXPECT_EQ(v.Find("verdict")->string_value(), "deadline");
  EXPECT_FALSE(v.Find("ok")->bool_value());
  EXPECT_EQ(v.Find("est_rows")->number_value(), 100.0);
  ASSERT_NE(v.Find("flight"), nullptr);
  const net::JsonValue& flight = *v.Find("flight");
  ASSERT_TRUE(flight.is_object());
  EXPECT_EQ(flight.Find("spans")->array().size(), 2u);
  EXPECT_EQ(flight.Find("counter_deltas")
                ->Find("sjos_engine_queries_total")
                ->number_value(),
            1.0);
  // ts_us is stamped by Append, not serialization; unset stays explicit.
  EXPECT_EQ(v.Find("ts_us")->number_value(), 0.0);
}

TEST(QueryLogTest, SuccessRecordOmitsFlight) {
  const std::string line = MakeRecord("q-1", 3.0).ToJsonl();
  EXPECT_EQ(line.find("flight"), std::string::npos) << line;
  ASSERT_TRUE(net::ParseJson(line).ok()) << line;
}

TEST(QueryLogTest, InMemoryRingServesRecentAndSlow) {
  QueryLogOptions options;  // no file sinks
  options.slow_query_ms = 100;
  QueryLog log(options);

  log.Append(MakeRecord("fast-1", 5.0));
  log.Append(MakeRecord("slow-1", 150.0));
  log.Append(MakeRecord("fast-2", 7.0));
  log.Append(MakeRecord("slow-2", 100.0));  // >= threshold promotes

  EXPECT_EQ(log.appended(), 4u);
  EXPECT_EQ(log.slow_count(), 2u);
  EXPECT_EQ(log.dropped(), 0u);

  std::vector<QueryLogRecord> recent = log.Recent(10);
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.back().query_id, "slow-2");
  EXPECT_GT(recent.back().ts_us, 0);  // Append stamps wall time

  std::vector<QueryLogRecord> slow = log.RecentSlow(10);
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].query_id, "slow-1");
  EXPECT_EQ(slow[1].query_id, "slow-2");
  // A bounded ask returns the newest records.
  ASSERT_EQ(log.RecentSlow(1).size(), 1u);
  EXPECT_EQ(log.RecentSlow(1)[0].query_id, "slow-2");
}

TEST(QueryLogTest, ZeroThresholdDisablesPromotion) {
  QueryLogOptions options;
  options.slow_query_ms = 0;
  QueryLog log(options);
  log.Append(MakeRecord("glacial", 60'000.0));
  EXPECT_EQ(log.slow_count(), 0u);
  EXPECT_TRUE(log.RecentSlow(10).empty());
}

TEST(QueryLogTest, FileSinksReceiveWellFormedJsonl) {
  const std::string audit_path = TempPath("query_log_audit.jsonl");
  const std::string slow_path = TempPath("query_log_slow.jsonl");
  std::remove(audit_path.c_str());
  std::remove(slow_path.c_str());
  {
    QueryLogOptions options;
    options.path = audit_path;
    options.slow_path = slow_path;
    options.slow_query_ms = 100;
    QueryLog log(options);
    log.Append(MakeRecord("fast-1", 5.0));
    log.Append(MakeRecord("slow-1", 200.0));
    log.Append(MakeRecord("fast-2", 6.0));
    log.Flush();
  }
  const std::vector<std::string> audit = Lines(ReadFile(audit_path));
  ASSERT_EQ(audit.size(), 3u);
  for (const std::string& line : audit) {
    Result<net::JsonValue> parsed = net::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    EXPECT_TRUE(parsed.value().is_object());
  }
  // Only the promoted record reaches the slow sink.
  const std::vector<std::string> slow = Lines(ReadFile(slow_path));
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_NE(slow[0].find("\"query_id\":\"slow-1\""), std::string::npos);
  std::remove(audit_path.c_str());
  std::remove(slow_path.c_str());
}

TEST(QueryLogTest, WriterBacklogDropsOldestNeverBlocks) {
  const std::string audit_path = TempPath("query_log_overflow.jsonl");
  std::remove(audit_path.c_str());
  // Stall every write batch so the pending ring must absorb the burst.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("querylog.write", "delay:30").ok());
  uint64_t dropped = 0;
  {
    QueryLogOptions options;
    options.path = audit_path;
    options.ring_capacity = 4;
    QueryLog log(options);
    for (int i = 0; i < 64; ++i) {
      log.Append(MakeRecord("burst-" + std::to_string(i), 1.0));
    }
    EXPECT_EQ(log.appended(), 64u);
    FailpointRegistry::Global().Disable("querylog.write");
    log.Flush();
    dropped = log.dropped();
    EXPECT_GT(dropped, 0u);
    // The in-memory recent ring is independent of the writer backlog.
    EXPECT_EQ(log.Recent(1000).size(), 64u);
  }
  // Whatever was not dropped reached the file, newest included.
  const std::vector<std::string> lines = Lines(ReadFile(audit_path));
  EXPECT_EQ(lines.size(), 64u - dropped);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"query_id\":\"burst-63\""),
            std::string::npos);
  std::remove(audit_path.c_str());
}

}  // namespace
}  // namespace sjos
