// Tracer: session lifecycle, Chrome trace-event JSON output, span
// nesting, and the disabled fast path (no rings, no events).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "net/json.h"

namespace sjos {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(TraceTest, DisabledRecordsNothingAndAllocatesNoRings) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  const size_t rings_before = tracer.NumRingsForTest();
  const size_t events_before = tracer.NumEventsForTest();
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("noop:", "disabled");
  }
  EXPECT_EQ(tracer.NumRingsForTest(), rings_before);
  EXPECT_EQ(tracer.NumEventsForTest(), events_before);
}

TEST(TraceTest, StartWhileActiveFailsAndStopIsIdempotent) {
  Tracer& tracer = Tracer::Global();
  const std::string path = TempPath("trace_lifecycle.json");
  ASSERT_TRUE(tracer.Start(path).ok());
  EXPECT_TRUE(tracer.enabled());
  Status again = tracer.Start(TempPath("other.json"));
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(tracer.Stop().ok());
  EXPECT_FALSE(tracer.enabled());
  EXPECT_TRUE(tracer.Stop().ok());  // no session: OK no-op
  std::remove(path.c_str());
}

TEST(TraceTest, EmitsChromeTraceJsonWithSpans) {
  Tracer& tracer = Tracer::Global();
  const std::string path = TempPath("trace_output.json");
  ASSERT_TRUE(tracer.Start(path).ok());
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner:", "suffix");
  }
  EXPECT_GE(tracer.NumEventsForTest(), 2u);
  ASSERT_TRUE(tracer.Stop().ok());

  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"inner:suffix\""), std::string::npos)
      << json;
  // Complete spans with timestamps and durations, one pid, per-ring tids.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(TraceTest, SpanNestingIsPreserved) {
  Tracer& tracer = Tracer::Global();
  const std::string path = TempPath("trace_nesting.json");
  ASSERT_TRUE(tracer.Start(path).ok());
  // A child span recorded strictly inside its parent's [ts, ts+dur) window
  // must serialize with exactly those timestamps, so viewers reconstruct
  // the nesting.
  tracer.RecordSpan("parent", nullptr, 100, 400);
  tracer.RecordSpan("child", nullptr, 150, 200);
  ASSERT_TRUE(tracer.Stop().ok());

  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"name\":\"parent\",\"cat\":\"sjos\",\"ph\":\"X\","
                      "\"ts\":100,\"dur\":400"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"child\",\"cat\":\"sjos\",\"ph\":\"X\","
                      "\"ts\":150,\"dur\":200"),
            std::string::npos)
      << json;
  std::remove(path.c_str());
}

TEST(TraceTest, RestartClearsPreviousSessionEvents) {
  Tracer& tracer = Tracer::Global();
  const std::string path1 = TempPath("trace_first.json");
  const std::string path2 = TempPath("trace_second.json");
  ASSERT_TRUE(tracer.Start(path1).ok());
  tracer.RecordSpan("stale", nullptr, 0, 10);
  ASSERT_TRUE(tracer.Stop().ok());

  ASSERT_TRUE(tracer.Start(path2).ok());
  tracer.RecordSpan("fresh", nullptr, 0, 10);
  EXPECT_EQ(tracer.NumEventsForTest(), 1u);
  ASSERT_TRUE(tracer.Stop().ok());
  const std::string json = ReadFile(path2);
  EXPECT_EQ(json.find("stale"), std::string::npos) << json;
  EXPECT_NE(json.find("fresh"), std::string::npos) << json;
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(TraceTest, SpansCarryTheEnclosingQueryId) {
  Tracer& tracer = Tracer::Global();
  const std::string path = TempPath("trace_qid.json");
  ASSERT_TRUE(tracer.Start(path).ok());
  EXPECT_STREQ(CurrentTraceQueryId(), "");
  {
    TraceQueryScope scope("qid-outer");
    EXPECT_STREQ(CurrentTraceQueryId(), "qid-outer");
    tracer.RecordSpan("tagged", nullptr, 0, 5);
    {
      // Nested scopes override and restore, as the pool's per-task scopes
      // do around a worker's own ambient id.
      TraceQueryScope inner("qid-inner");
      tracer.RecordSpan("inner_tagged", nullptr, 1, 2);
    }
    EXPECT_STREQ(CurrentTraceQueryId(), "qid-outer");
  }
  EXPECT_STREQ(CurrentTraceQueryId(), "");
  tracer.RecordSpan("untagged", nullptr, 6, 1);
  ASSERT_TRUE(tracer.Stop().ok());

  const std::string json = ReadFile(path);
  // Each event closes with either ...,"tid":N} (no scope) or
  // ...,"args":{"qid":"..."}} — compare the text from the event's name to
  // its first '}' so the tag (or its absence) is checked per event.
  auto event_text = [&json](const std::string& name) {
    const size_t at = json.find("\"name\":\"" + name + "\"");
    EXPECT_NE(at, std::string::npos) << json;
    return json.substr(at, json.find('}', at) - at);
  };
  EXPECT_NE(event_text("tagged").find("\"args\":{\"qid\":\"qid-outer\""),
            std::string::npos)
      << json;
  EXPECT_NE(event_text("inner_tagged").find("\"args\":{\"qid\":\"qid-inner\""),
            std::string::npos)
      << json;
  // A span recorded outside any scope has no args object at all.
  EXPECT_EQ(event_text("untagged").find("args"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(TraceTest, RingOverwriteBumpsDroppedCounter) {
  Tracer& tracer = Tracer::Global();
  Counter& dropped =
      MetricsRegistry::Global().GetCounter("sjos_trace_dropped_events_total");
  const uint64_t before = dropped.Value();

  const std::string path = TempPath("trace_overflow.json");
  ASSERT_TRUE(tracer.Start(path).ok());
  // One more span than the ring holds: exactly one overwrite.
  for (size_t i = 0; i <= kTraceRingCapacity; ++i) {
    tracer.RecordSpan("flood", nullptr, i, 1);
  }
  EXPECT_EQ(tracer.NumEventsForTest(), kTraceRingCapacity);
  ASSERT_TRUE(tracer.Stop().ok());

  EXPECT_EQ(dropped.Value(), before + 1);
  std::remove(path.c_str());
}

TEST(TraceTest, JsonEscapesNameCharacters) {
  Tracer& tracer = Tracer::Global();
  const std::string path = TempPath("trace_escape.json");
  ASSERT_TRUE(tracer.Start(path).ok());
  tracer.RecordSpan("quote\"back\\slash", nullptr, 0, 1);
  ASSERT_TRUE(tracer.Stop().ok());
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos) << json;
  std::remove(path.c_str());
}

// A query id is client-supplied wire text and may hold any byte; the
// trace file must stay valid JSON and carry the id back unchanged.
TEST(TraceTest, QueryIdWithControlCharactersRoundTrips) {
  Tracer& tracer = Tracer::Global();
  const std::string path = TempPath("trace_qid_escape.json");
  const std::string qid = "line\nctl\x01quote\"end";
  ASSERT_TRUE(tracer.Start(path).ok());
  {
    TraceQueryScope scope(qid);
    tracer.RecordSpan("odd_qid", nullptr, 0, 1);
  }
  const std::string json = tracer.ToJson();
  ASSERT_TRUE(tracer.Stop().ok());
  std::remove(path.c_str());

  Result<net::JsonValue> parsed = net::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const net::JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr) << json;
  bool found = false;
  for (const net::JsonValue& ev : events->array()) {
    const net::JsonValue* name = ev.Find("name");
    if (name == nullptr || name->string_value() != "odd_qid") continue;
    found = true;
    const net::JsonValue* args = ev.Find("args");
    ASSERT_NE(args, nullptr) << json;
    ASSERT_NE(args->Find("qid"), nullptr) << json;
    EXPECT_EQ(args->Find("qid")->string_value(), qid);
  }
  EXPECT_TRUE(found) << json;
}

}  // namespace
}  // namespace sjos
