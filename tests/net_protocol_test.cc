// Wire-protocol hardening tests: frame codec round trips, the strict JSON
// parser, DecodeRequest's validation, and a malformed-frame corpus fired
// at a live loopback server — every entry must come back as one clean
// error response (or, for unrecoverable framing, one response then a
// close), and the server must stay fully serviceable afterwards. Run
// under ASan in CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/client.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/json.h"
#include "net/server.h"
#include "query/workload.h"
#include "service/engine.h"

namespace sjos {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Frame codec (buffer level, no sockets)

TEST(FrameTest, RoundTrip) {
  const std::string payload = "{\"verb\":\"ping\"}";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  std::string_view decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame, 1 << 20, &decoded, &consumed),
            FrameDecode::kOk);
  EXPECT_EQ(decoded, payload);
  EXPECT_EQ(consumed, frame.size());
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  const std::string frame = EncodeFrame("");
  std::string_view decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame, 16, &decoded, &consumed), FrameDecode::kOk);
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(consumed, kFrameHeaderBytes);
}

TEST(FrameTest, PartialHeaderNeedsMore) {
  const std::string frame = EncodeFrame("abc");
  for (size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    std::string_view decoded;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, cut), 16,
                          &decoded, &consumed),
              FrameDecode::kNeedMore);
  }
}

TEST(FrameTest, PartialPayloadNeedsMore) {
  const std::string frame = EncodeFrame("abcdef");
  std::string_view decoded;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, frame.size() - 1),
                        16, &decoded, &consumed),
            FrameDecode::kNeedMore);
}

TEST(FrameTest, OversizeDeclaredLength) {
  std::string frame = EncodeFrame("x");
  frame[0] = '\x7f';  // declared length now huge
  std::string_view decoded;
  size_t consumed = 0;
  uint64_t declared = 0;
  EXPECT_EQ(DecodeFrame(frame, 16, &decoded, &consumed, &declared),
            FrameDecode::kOversize);
  EXPECT_GT(declared, 16u);
}

TEST(FrameTest, BackToBackFrames) {
  const std::string two = EncodeFrame("first") + EncodeFrame("second");
  std::string_view decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(two, 64, &decoded, &consumed), FrameDecode::kOk);
  EXPECT_EQ(decoded, "first");
  ASSERT_EQ(DecodeFrame(std::string_view(two).substr(consumed), 64, &decoded,
                        &consumed),
            FrameDecode::kOk);
  EXPECT_EQ(decoded, "second");
}

// ---------------------------------------------------------------------------
// fd-level framing: clean EOF vs torn frames (socketpair, no server)

TEST(FrameTest, CleanEofBetweenFramesIsOkWithFlag) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);  // peer hangs up before any byte of the next frame
  std::string payload;
  bool clean_eof = false;
  Status st = RecvFrame(sv[0], 1 << 20, &payload, &clean_eof);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(clean_eof);
  ::close(sv[0]);
}

TEST(FrameTest, CloseMidHeaderIsUnavailableNotEof) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::send(sv[1], "\x00\x00", 2, 0), 2);  // half a length prefix
  ::close(sv[1]);
  std::string payload;
  bool clean_eof = false;
  Status st = RecvFrame(sv[0], 1 << 20, &payload, &clean_eof);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_NE(st.message().find("mid-frame"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(clean_eof);
  ::close(sv[0]);
}

TEST(FrameTest, CloseMidPayloadIsUnavailableWithByteCounts) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char header[4] = {'\x00', '\x00', '\x00', '\x0a'};  // promises 10
  ASSERT_EQ(::send(sv[1], header, sizeof(header), 0), 4);
  ASSERT_EQ(::send(sv[1], "abc", 3, 0), 3);  // delivers 3
  ::close(sv[1]);
  std::string payload;
  bool clean_eof = false;
  Status st = RecvFrame(sv[0], 1 << 20, &payload, &clean_eof);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_NE(st.message().find("mid-payload"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("3 of 10"), std::string::npos) << st.ToString();
  EXPECT_FALSE(clean_eof);
  ::close(sv[0]);
}

// ---------------------------------------------------------------------------
// JSON parser

TEST(JsonTest, ParsesNestedDocument) {
  Result<JsonValue> v = ParseJson(
      " {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\n\\u0041\"},"
      " \"t\": true, \"n\": null} ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* a = v.value().Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array()[2].number_value(), -300.0);
  const JsonValue* b = v.value().Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->Find("c")->string_value(), "x\nA");
}

TEST(JsonTest, SurrogatePairDecodesToUtf8) {
  Result<JsonValue> v = ParseJson("\"\\ud83d\\ude00\"");  // 😀
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().string_value(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* cases[] = {
      "",           "{",         "}",          "{\"a\":}",
      "{\"a\" 1}",  "[1,]",      "[1 2]",      "{\"a\":1,}",
      "tru",        "nul",       "01",         "1.",
      ".5",         "+1",        "1e",         "\"\\x\"",
      "\"\\u12\"",  "falsy",     "\"a",        "{\"a\":1}x",
      "\"\\ud83d\"",             // lone high surrogate
      "{\"a\":1 \"b\":2}",
  };
  for (const char* text : cases) {
    Result<JsonValue> v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) EXPECT_EQ(v.status().code(), StatusCode::kParseError);
  }
}

TEST(JsonTest, DepthLimitIsAParseErrorNotACrash) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  Result<JsonValue> v = ParseJson(deep, /*max_depth=*/64);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(JsonTest, WriterEscapesControlCharacters) {
  std::string out;
  AppendJsonString(std::string("a\"b\\c\n\x01", 7), &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\u0001\"");
  Result<JsonValue> back = ParseJson(out);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().string_value(), std::string("a\"b\\c\n\x01", 7));
}

TEST(JsonTest, UintWriterIsExact) {
  std::string out;
  AppendJsonUint(18446744073709551615ull, &out);
  EXPECT_EQ(out, "18446744073709551615");
}

// ---------------------------------------------------------------------------
// Request codec

TEST(CodecTest, DecodesFullSubmit) {
  Result<WireRequest> r = DecodeRequest(
      "{\"verb\":\"submit\",\"id\":\"q1\",\"tenant\":\"acme\","
      "\"query\":\"a[//b]\",\"optimizer\":\"dp\",\"deadline_ms\":250,"
      "\"use_plan_cache\":false,\"xpath\":false}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().verb, Verb::kSubmit);
  EXPECT_EQ(r.value().id, "q1");
  EXPECT_EQ(r.value().tenant, "acme");
  EXPECT_EQ(r.value().deadline_ms, 250u);
  EXPECT_FALSE(r.value().use_plan_cache);
  QueryOptions options = r.value().ToQueryOptions();
  EXPECT_EQ(options.tenant, "acme");
  EXPECT_EQ(options.deadline_ms, 250u);
}

TEST(CodecTest, ErrorResponseShapesAreParseable) {
  const std::string shed = EncodeErrorResponse(
      "q9", Status::ResourceExhausted("over quota"), /*retry_after_ms=*/120);
  Result<JsonValue> v = ParseJson(shed);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.value().Find("ok")->bool_value());
  EXPECT_EQ(v.value().Find("code")->string_value(), "ResourceExhausted");
  EXPECT_DOUBLE_EQ(v.value().Find("retry_after_ms")->number_value(), 120.0);
}

// ---------------------------------------------------------------------------
// Replay ring

TEST(ReplayRingTest, RetainedBytesStayUnderTheCap) {
  // Entry capacity alone would keep all 48 one-MiB responses.
  ReplayRing ring(/*capacity=*/256);
  const size_t kResponse = size_t{1} << 20;
  for (int i = 0; i < 48; ++i) {
    ring.Push("q" + std::to_string(i), std::string(kResponse, 'x'), false);
    EXPECT_LE(ring.bytes(), kReplayRingMaxBytes);
  }
  EXPECT_EQ(ring.size(), kReplayRingMaxBytes / kResponse);
  EXPECT_EQ(ring.bytes(), ring.size() * kResponse);
  // The newest response still replays; the oldest were evicted.
  const ReplayRing::Entry* newest = ring.Find("q47");
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->response.size(), kResponse);
  EXPECT_EQ(ring.Find("q0"), nullptr);

  // A single response over the cap is kept (the newest always replays)
  // until the next push evicts it.
  ring.Push("huge", std::string(kReplayRingMaxBytes + 1, 'y'), false);
  EXPECT_EQ(ring.size(), 1u);
  ASSERT_NE(ring.Find("huge"), nullptr);
  ring.Push("small", "{}", false);
  EXPECT_EQ(ring.Find("huge"), nullptr);
  EXPECT_EQ(ring.bytes(), 2u);

  ring.Erase("small");
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.bytes(), 0u);
}

TEST(ReplayRingTest, EntryCapacityStillApplies) {
  ReplayRing ring(/*capacity=*/2);
  ring.Push("a", "1", false);
  ring.Push("b", "22", false);
  ring.Push("c", "333", false);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.bytes(), 5u);
  EXPECT_EQ(ring.Find("a"), nullptr);
  ASSERT_NE(ring.Find("c"), nullptr);
}

TEST(ReplayRingTest, EraseDropsTheEntryFindReturns) {
  ReplayRing ring(/*capacity=*/4);
  ring.Push("q", "old", false);
  ring.Push("q", "poison", true);
  ASSERT_TRUE(ring.Find("q")->disconnect_cancelled);
  ring.Erase("q");
  ASSERT_NE(ring.Find("q"), nullptr);
  EXPECT_EQ(ring.Find("q")->response, "old");
  EXPECT_EQ(ring.bytes(), 3u);
}

// ---------------------------------------------------------------------------
// Live-server malformed-frame corpus

class ProtocolServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    DatasetScale scale;
    scale.base_nodes = 1'000;
    ASSERT_TRUE(engine_
                    ->OpenDatabase(
                        MakePaperDataset("Pers", scale).value())
                    .ok());
    ServerOptions options;
    options.max_frame_bytes = 64 << 10;
    server_ = new QueryServer(engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete engine_;
    engine_ = nullptr;
  }

  static Client Connect() {
    Result<Client> c = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

  /// The post-corpus liveness probe: the server must still answer a ping.
  static void ExpectServerAlive() {
    Client c = Connect();
    Result<JsonValue> pong = c.Call("{\"verb\":\"ping\",\"id\":\"alive\"}");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong.value().Find("ok")->bool_value());
  }

  static Engine* engine_;
  static QueryServer* server_;
};

Engine* ProtocolServerTest::engine_ = nullptr;
QueryServer* ProtocolServerTest::server_ = nullptr;

TEST_F(ProtocolServerTest, MalformedPayloadCorpusGetsCleanErrors) {
  // Every payload is framed correctly but malformed inside; each must
  // yield exactly one ok:false response on a connection that stays open.
  const std::vector<std::string> corpus = {
      // Not JSON at all.
      "", " ", "garbage", std::string("\x00\x01\x02", 3), "{", "}", "[",
      "\"",
      "{\"verb\":\"ping\"", "{]", "nul", "{\"verb\" \"ping\"}",
      // Valid JSON, wrong shape.
      "42", "\"ping\"", "[\"ping\"]", "null", "true",
      // Missing / unknown / mistyped verb.
      "{}", "{\"verb\":\"launch\"}", "{\"verb\":7}", "{\"verb\":null}",
      // Field type violations.
      "{\"verb\":\"submit\",\"id\":7,\"query\":\"a[/b]\"}",
      "{\"verb\":\"submit\",\"id\":\"q\",\"query\":17}",
      "{\"verb\":\"poll\",\"id\":\"q\",\"wait_ms\":\"soon\"}",
      "{\"verb\":\"submit\",\"id\":\"q\",\"query\":\"a[/b]\","
      "\"deadline_ms\":-5}",
      "{\"verb\":\"submit\",\"id\":\"q\",\"query\":\"a[/b]\","
      "\"use_plan_cache\":\"yes\"}",
      // Required fields absent.
      "{\"verb\":\"submit\"}",
      "{\"verb\":\"submit\",\"id\":\"q\"}",
      "{\"verb\":\"submit\",\"query\":\"a[/b]\"}",
      "{\"verb\":\"poll\"}", "{\"verb\":\"cancel\"}",
      // Semantic rejects.
      "{\"verb\":\"submit\",\"id\":\"q\",\"query\":\"a[/b]\","
      "\"optimizer\":\"quantum\"}",
      "{\"verb\":\"submit\",\"id\":\"" + std::string(300, 'x') +
          "\",\"query\":\"a[/b]\"}",
      "{\"verb\":\"submit\",\"id\":\"q\",\"query\":\"not a pattern ((\"}",
      "{\"verb\":\"poll\",\"id\":\"never-submitted\"}",
      // Hostile JSON: deep nesting and an embedded NUL.
      std::string(100, '[') + std::string(100, ']'),
      std::string("{\"verb\":\"ping\",\"x\":\"a\x00b\"}", 25),
  };
  ASSERT_GE(corpus.size(), 30u);

  for (size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE("corpus entry " + std::to_string(i));
    Client client = Connect();
    ASSERT_TRUE(client.Send(corpus[i]).ok());
    Result<std::string> raw = client.Receive();
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    Result<JsonValue> response = ParseJson(raw.value());
    ASSERT_TRUE(response.ok()) << raw.value();
    const JsonValue* ok = response.value().Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->bool_value());
    EXPECT_NE(response.value().Find("error"), nullptr);

    // The connection survives a malformed payload: a ping on the same
    // socket still answers.
    Result<JsonValue> pong = client.Call("{\"verb\":\"ping\",\"id\":\"p\"}");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong.value().Find("ok")->bool_value());
  }
  ExpectServerAlive();
}

/// Connects a raw TCP socket to the suite's server (for byte-level abuse
/// the Client's framing would prevent).
int RawConnect(uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST_F(ProtocolServerTest, OversizeLengthPrefixAnswersOnceThenCloses) {
  // A header declaring 16 MiB against the server's 64 KiB cap: one
  // ResourceExhausted response, then the server closes (the stream cannot
  // be resynchronized).
  const int fd = RawConnect(server_->port());
  const char header[4] = {'\x01', '\x00', '\x00', '\x00'};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));

  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(
      RecvFrame(fd, kFrameAbsoluteMaxPayload, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  Result<JsonValue> response = ParseJson(payload);
  ASSERT_TRUE(response.ok()) << payload;
  EXPECT_FALSE(response.value().Find("ok")->bool_value());
  EXPECT_EQ(response.value().Find("code")->string_value(),
            "ResourceExhausted");

  // Next read: connection closed by the server.
  Status eof = RecvFrame(fd, kFrameAbsoluteMaxPayload, &payload, &clean_eof);
  EXPECT_TRUE(eof.ok() && clean_eof) << eof.ToString();
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(ProtocolServerTest, TruncatedHeaderThenCloseLeavesServerAlive) {
  // Half a length prefix, then hang up: the server sees a mid-frame close
  // and must simply drop the connection.
  const int fd = RawConnect(server_->port());
  ASSERT_EQ(::send(fd, "\x00\x00", 2, 0), 2);
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(ProtocolServerTest, TruncatedPayloadThenCloseLeavesServerAlive) {
  // A complete header promising 100 bytes, but only 3 delivered.
  const int fd = RawConnect(server_->port());
  const char header[4] = {'\x00', '\x00', '\x00', '\x64'};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(fd, "{\"v", 3, 0), 3);
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(ProtocolServerTest, ResubmitIsIdempotentAttachThenReplay) {
  // The duplicate-id contract: a re-submit of a live id attaches to the
  // running query (one execution, no error); after the result has been
  // consumed, a re-submit replays the stored terminal response.
  Client client = Connect();
  const std::string submit =
      "{\"verb\":\"submit\",\"id\":\"dup\",\"query\":\"manager[//name]\"}";
  Result<JsonValue> first = client.Call(submit);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().Find("ok")->bool_value());

  Result<JsonValue> second = client.Call(submit);
  ASSERT_TRUE(second.ok());
  const JsonValue* attached = second.value().Find("attached");
  EXPECT_TRUE(second.value().Find("ok")->bool_value());
  ASSERT_NE(attached, nullptr);
  EXPECT_TRUE(attached->bool_value());

  // Consume the result; the terminal response moves to the replay ring.
  Result<JsonValue> done = client.Call(
      "{\"verb\":\"poll\",\"id\":\"dup\",\"wait_ms\":5000}");
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done.value().Find("ok")->bool_value());
  ASSERT_TRUE(done.value().Find("done")->bool_value());
  const JsonValue* result = done.value().Find("result");
  ASSERT_NE(result, nullptr);
  const double rows = result->Find("row_count")->number_value();

  // Third submit: replayed terminal, not a fresh run — done:true with the
  // same row count, straight from the ring.
  Result<JsonValue> third = client.Call(submit);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.value().Find("ok")->bool_value());
  const JsonValue* replay_done = third.value().Find("done");
  ASSERT_NE(replay_done, nullptr);
  EXPECT_TRUE(replay_done->bool_value());
  const JsonValue* replay_result = third.value().Find("result");
  ASSERT_NE(replay_result, nullptr);
  EXPECT_DOUBLE_EQ(replay_result->Find("row_count")->number_value(), rows);
}

}  // namespace
}  // namespace net
}  // namespace sjos
