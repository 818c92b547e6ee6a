// Wire-protocol hardening tests: frame codec round trips, the strict JSON
// parser, DecodeRequest's validation, and a malformed-frame corpus fired
// at a live loopback server — every entry must come back as one clean
// error response (or, for unrecoverable framing, one response then a
// close), and the server must stay fully serviceable afterwards. Run
// under ASan in CI.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.h"
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

TEST(FrameTest, SendFrameSurvivesPartialWrites) {
  // A blocking sendmsg interrupted by a signal after moving some bytes
  // returns a short count. The reader drains a small socket buffer slowly
  // and signals the writer before every read, so a multi-MB frame goes
  // out in many short writes that end inside the header or the payload;
  // both frames must still arrive whole and in order.
  struct sigaction poke = {};
  poke.sa_handler = [](int) {};
  sigemptyset(&poke.sa_mask);
  poke.sa_flags = 0;  // no SA_RESTART: let the signal cut sendmsg short
  struct sigaction saved = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &poke, &saved), 0);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);
  std::string big(3 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 23);
  }
  Status sent;
  std::thread writer([&] {
    sent = SendFrame(sv[0], big);
    if (sent.ok()) sent = SendFrame(sv[0], "");
    ::close(sv[0]);
  });
  std::string received;
  char chunk[1500];
  for (;;) {
    ::pthread_kill(writer.native_handle(), SIGUSR1);
    const ssize_t n = ::recv(sv[1], chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    received.append(chunk, static_cast<size_t>(n));
  }
  writer.join();
  ::close(sv[1]);
  ASSERT_EQ(::sigaction(SIGUSR1, &saved, nullptr), 0);
  EXPECT_TRUE(sent.ok()) << sent.ToString();

  std::string_view rest = received;
  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(rest, big.size(), &payload, &consumed),
            FrameDecode::kOk);
  EXPECT_TRUE(payload == big);
  rest.remove_prefix(consumed);
  ASSERT_EQ(DecodeFrame(rest, big.size(), &payload, &consumed),
            FrameDecode::kOk);
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(consumed, rest.size());
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

/// Expects `text` to be rejected with a ParseError reading
/// "JSON error at byte <error>".
void ExpectJsonError(const std::string& text, const std::string& error) {
  Result<JsonValue> v = ParseJson(text);
  ASSERT_FALSE(v.ok()) << "accepted: " << text;
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
  EXPECT_EQ(v.status().message(), "JSON error at byte " + error) << text;
}

/// Expects `text` to parse to a number bit-identical to strtod's reading.
void ExpectStrtodNumber(const std::string& text) {
  Result<JsonValue> v = ParseJson(text);
  ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
  ASSERT_TRUE(v.value().is_number()) << text;
  const double got = v.value().number_value();
  const double want = std::strtod(text.c_str(), nullptr);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << text << ": " << got << " vs " << want;
}

TEST(JsonTest, NumberGrammarEdgeCases) {
  ExpectJsonError("01", "1: trailing characters after the JSON document");
  ExpectJsonError("1.", "2: invalid number: missing fraction digits");
  ExpectJsonError("-", "1: invalid number");
  ExpectJsonError("1e", "2: invalid number: missing exponent digits");
  ExpectJsonError("1e+", "3: invalid number: missing exponent digits");
  ExpectJsonError("1e400", "5: number out of range");
  ExpectJsonError("-1e400", "6: number out of range");
  ExpectJsonError("1.7976931348623159e308", "22: number out of range");
  ExpectJsonError("[1,01]", "4: expected ',' or ']' in array");
  ExpectJsonError("{\"a\":1.}", "7: invalid number: missing fraction digits");

  // Accepted numbers read exactly as strtod reads them, signed zeros and
  // underflow included.
  ExpectStrtodNumber("-0");
  ExpectStrtodNumber("0.5e-3");
  ExpectStrtodNumber("9007199254740993");
  ExpectStrtodNumber("999999999999999");
  ExpectStrtodNumber("-9999999999999999");
  ExpectStrtodNumber("1E+2");
  ExpectStrtodNumber("-12.5e1");
  ExpectStrtodNumber("1e-400");
  ExpectStrtodNumber("-1e-400");
  ExpectStrtodNumber("4e-320");
  ExpectStrtodNumber("0.0e400");
  ExpectStrtodNumber("1.7976931348623157e308");
  // 2^53 + 1 is not representable and rounds to even, down to 2^53.
  EXPECT_EQ(ParseJson("9007199254740993").value().number_value(),
            9007199254740992.0);
  EXPECT_TRUE(std::signbit(ParseJson("-0").value().number_value()));
}

TEST(JsonTest, RandomNumbersReadAsStrtodReadsThem) {
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    if (rng.NextBool(0.3)) text += '-';
    const size_t int_digits = 1 + rng.NextBelow(20);
    text += static_cast<char>('1' + rng.NextBelow(9));
    for (size_t d = 1; d < int_digits; ++d) {
      text += static_cast<char>('0' + rng.NextBelow(10));
    }
    if (rng.NextBool(0.5)) {
      text += '.';
      const size_t frac_digits = 1 + rng.NextBelow(20);
      for (size_t d = 0; d < frac_digits; ++d) {
        text += static_cast<char>('0' + rng.NextBelow(10));
      }
    }
    if (rng.NextBool(0.5)) {
      text += rng.NextBool(0.5) ? 'e' : 'E';
      text += std::to_string(rng.NextInRange(-330, 300));
    }
    Result<JsonValue> v = ParseJson(text);
    const double want = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(want)) {
      ASSERT_FALSE(v.ok()) << "accepted: " << text;
      EXPECT_NE(v.status().message().find("number out of range"),
                std::string::npos)
          << v.status().ToString();
      continue;
    }
    ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    const double got = v.value().number_value();
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << text << ": " << got << " vs " << want;
  }
}

/// Deep structural equality; numbers compare by value.
bool SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.bool_value() == b.bool_value();
    case JsonValue::Kind::kNumber:
      return a.number_value() == b.number_value();
    case JsonValue::Kind::kString:
      return a.string_value() == b.string_value();
    case JsonValue::Kind::kArray:
      if (a.array().size() != b.array().size()) return false;
      for (size_t i = 0; i < a.array().size(); ++i) {
        if (!SameJson(a.array()[i], b.array()[i])) return false;
      }
      return true;
    case JsonValue::Kind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].first != b.members()[i].first ||
            !SameJson(a.members()[i].second, b.members()[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

TEST(JsonTest, CopyAndMoveKeepContents) {
  const JsonValue original = ParseJson(
      "{\"s\":\"text\",\"a\":[1,\"x\",[true,null]],\"o\":{\"k\":-2.5}}")
                                 .value();
  JsonValue copy = original;
  ASSERT_TRUE(SameJson(copy, original));
  EXPECT_EQ(copy.Find("s")->string_value(), "text");
  EXPECT_EQ(copy.Find("a")->array()[1].string_value(), "x");
  EXPECT_EQ(copy.Find("o")->Find("k")->number_value(), -2.5);

  JsonValue moved = std::move(copy);
  EXPECT_TRUE(SameJson(moved, original));

  JsonValue assigned = JsonValue::MakeString("old");
  assigned = original;
  EXPECT_TRUE(SameJson(assigned, original));
  JsonValue move_assigned = JsonValue::MakeArray({JsonValue::MakeNumber(1)});
  move_assigned = std::move(assigned);
  EXPECT_TRUE(SameJson(move_assigned, original));

  // A copy owns its strings and members: changing the copy's source does
  // not reach it.
  JsonValue str = JsonValue::MakeString("abc");
  JsonValue str_copy = str;
  str = JsonValue::MakeString("xyz");
  EXPECT_EQ(str_copy.string_value(), "abc");
  JsonValue& self = move_assigned;
  move_assigned = self;
  EXPECT_TRUE(SameJson(move_assigned, original));
}

/// A random value tree: numbers are integers or dyadic fractions, so
/// %.17g writes them exactly; strings hold arbitrary bytes, control
/// characters and quotes included.
JsonValue RandomJson(Rng* rng, int depth) {
  const uint64_t pick = rng->NextBelow(depth >= 4 ? 4 : 6);
  switch (pick) {
    case 0:
      return JsonValue::MakeNull();
    case 1:
      return JsonValue::MakeBool(rng->NextBool(0.5));
    case 2: {
      const double n = static_cast<double>(rng->NextInRange(-1000000, 1000000));
      return JsonValue::MakeNumber(rng->NextBool(0.5) ? n : n / 1024.0);
    }
    case 3: {
      std::string s(rng->NextBelow(12), '\0');
      for (char& c : s) c = static_cast<char>(rng->NextBelow(128));
      return JsonValue::MakeString(std::move(s));
    }
    case 4: {
      std::vector<JsonValue> items(rng->NextBelow(6));
      for (JsonValue& item : items) item = RandomJson(rng, depth + 1);
      return JsonValue::MakeArray(std::move(items));
    }
    default: {
      std::vector<std::pair<std::string, JsonValue>> members;
      const uint64_t n = rng->NextBelow(5);
      for (uint64_t i = 0; i < n; ++i) {
        members.emplace_back("k" + std::to_string(rng->NextBelow(8)),
                             RandomJson(rng, depth + 1));
      }
      return JsonValue::MakeObject(std::move(members));
    }
  }
}

void WriteJson(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += v.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number_value());
      *out += buf;
      break;
    }
    case JsonValue::Kind::kString:
      AppendJsonString(v.string_value(), out);
      break;
    case JsonValue::Kind::kArray:
      *out += "[ ";
      for (size_t i = 0; i < v.array().size(); ++i) {
        if (i > 0) *out += " ,";
        WriteJson(v.array()[i], out);
      }
      *out += ']';
      break;
    case JsonValue::Kind::kObject:
      *out += '{';
      for (size_t i = 0; i < v.members().size(); ++i) {
        if (i > 0) *out += ',';
        AppendJsonString(v.members()[i].first, out);
        *out += " :\n";
        WriteJson(v.members()[i].second, out);
      }
      *out += '}';
      break;
  }
}

TEST(JsonTest, RandomTreesRoundTrip) {
  Rng rng(1414);
  for (int i = 0; i < 2000; ++i) {
    const JsonValue tree = RandomJson(&rng, 0);
    std::string text;
    WriteJson(tree, &text);
    Result<JsonValue> back = ParseJson(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    ASSERT_TRUE(SameJson(back.value(), tree)) << text;
  }
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
// Response encoders: the terminal poll replies, byte for byte. The
// expected strings were produced by the encoder these tests guard, before
// its rewrite onto the flat canonical sort and std::to_chars; clients
// compare results by bytes, so any drift is a protocol change.

QueryResult MakeResult(std::vector<PatternNodeId> slots,
                       const std::vector<std::vector<NodeId>>& rows) {
  QueryResult qr;
  qr.tuples = TupleSet(std::move(slots));
  for (const std::vector<NodeId>& row : rows) qr.tuples.AppendRow(row.data());
  qr.stats.result_rows = rows.size();
  return qr;
}

/// Slots out of pattern-node order, duplicate rows, ids at and above 2^31.
QueryResult MixedResult() {
  QueryResult qr = MakeResult({5, 2, 9}, {{10, 99, 7},
                                          {11, 50, 7},
                                          {10, 99, 7},
                                          {3, 50, 8},
                                          {11, 50, 6},
                                          {0, 4294967295u, 2147483648u}});
  qr.stats.wall_ms = 1.23456;
  qr.stats.peak_live_rows = 42;
  qr.stats.peak_live_bytes = 4096;
  qr.stats.max_q_error = 2.5;
  qr.planned.algorithm = "DPP";
  qr.planned.cache_hit = true;
  qr.query_id = "q-1";
  return qr;
}

TEST(EncoderGoldenTest, MixedResult) {
  EXPECT_EQ(EncodeDoneResult("r1", MixedResult(), 1 << 20),
            "{\"id\":\"r1\",\"ok\":true,\"done\":true,\"result\":{\"slots\":"
            "[2,5,9],\"rows\":[[50,3,8],[50,11,6],[50,11,7],[99,10,7],"
            "[99,10,7],[4294967295,0,2147483648]],\"row_count\":6,\"stats\":"
            "{\"result_rows\":6,\"wall_ms\":1.235,\"peak_live_rows\":42,"
            "\"peak_live_bytes\":4096,\"max_q_error\":2.5000},\"algorithm\":"
            "\"DPP\",\"cache_hit\":true,\"fallback_from\":\"\",\"query_id\":"
            "\"q-1\"}}");
}

TEST(EncoderGoldenTest, ArityOneWithFallbackAndEscapedQueryId) {
  QueryResult qr = MakeResult({3}, {{7}, {7}, {1}, {4294967295u}, {0}, {7}});
  qr.stats.wall_ms = 0.0005;
  qr.stats.max_q_error = 1.0;
  qr.planned.algorithm = "FP";
  qr.planned.fallback_from = "DPAP-LD";
  qr.query_id = std::string("id\"\\\x01\x1f/\x7f", 8);
  EXPECT_EQ(EncodeDoneResult("r2", qr, 1 << 20),
            "{\"id\":\"r2\",\"ok\":true,\"done\":true,\"result\":{\"slots\":"
            "[3],\"rows\":[[0],[1],[7],[7],[7],[4294967295]],\"row_count\":6,"
            "\"stats\":{\"result_rows\":6,\"wall_ms\":0.001,"
            "\"peak_live_rows\":0,\"peak_live_bytes\":0,\"max_q_error\":"
            "1.0000},\"algorithm\":\"FP\",\"cache_hit\":false,"
            "\"fallback_from\":\"DPAP-LD\",\"query_id\":\"id\\\"\\\\\\u0001"
            "\\u001f/\x7f\"}}");
}

TEST(EncoderGoldenTest, ZeroRows) {
  QueryResult qr = MakeResult({4, 1}, {});
  qr.planned.algorithm = "DP";
  qr.query_id = "empty";
  EXPECT_EQ(EncodeDoneResult("r3", qr, 1 << 20),
            "{\"id\":\"r3\",\"ok\":true,\"done\":true,\"result\":{\"slots\":"
            "[1,4],\"rows\":[],\"row_count\":0,\"stats\":{\"result_rows\":0,"
            "\"wall_ms\":0.000,\"peak_live_rows\":0,\"peak_live_bytes\":0,"
            "\"max_q_error\":0.0000},\"algorithm\":\"DP\",\"cache_hit\":false,"
            "\"fallback_from\":\"\",\"query_id\":\"empty\"}}");
}

TEST(EncoderGoldenTest, LargeIdsAndCounters) {
  QueryResult qr = MakeResult({1, 0}, {{2147483648u, 2147483647u},
                                       {4294967295u, 4294967294u},
                                       {2147483648u, 0},
                                       {2147483648u, 0}});
  qr.stats.wall_ms = 12345.6789;
  qr.stats.peak_live_rows = uint64_t{1} << 33;
  qr.stats.peak_live_bytes = 18446744073709551615ull;
  qr.stats.max_q_error = 1e6;
  qr.planned.algorithm = "DPAP-EB";
  qr.query_id = "big";
  EXPECT_EQ(EncodeDoneResult("r4", qr, 1 << 20),
            "{\"id\":\"r4\",\"ok\":true,\"done\":true,\"result\":{\"slots\":"
            "[0,1],\"rows\":[[0,2147483648],[0,2147483648],"
            "[2147483647,2147483648],[4294967294,4294967295]],\"row_count\":4,"
            "\"stats\":{\"result_rows\":4,\"wall_ms\":12345.679,"
            "\"peak_live_rows\":8589934592,\"peak_live_bytes\":"
            "18446744073709551615,\"max_q_error\":1000000.0000},"
            "\"algorithm\":\"DPAP-EB\",\"cache_hit\":false,\"fallback_from\":"
            "\"\",\"query_id\":\"big\"}}");
}

TEST(EncoderGoldenTest, OversizeResultBecomesAnError) {
  EXPECT_EQ(EncodeDoneResult("r5", MixedResult(), 100),
            "{\"id\":\"r5\",\"ok\":false,\"code\":\"ResourceExhausted\","
            "\"error\":\"result of 6 rows is too large for one response frame "
            "\xe2\x80\x94 tighten the query or raise max_frame_bytes\"}");
}

TEST(EncoderGoldenTest, DoneErrors) {
  QueryErrorInfo deadline;
  deadline.verdict = "deadline";
  deadline.query_id = "q-2";
  EXPECT_EQ(
      EncodeDoneError(
          "e1", Status::DeadlineExceeded("deadline of 5 ms exceeded"),
          deadline),
      "{\"id\":\"e1\",\"ok\":false,\"done\":true,\"code\":"
      "\"DeadlineExceeded\",\"error\":\"deadline of 5 ms exceeded\","
      "\"verdict\":\"deadline\",\"query_id\":\"q-2\"}");

  QueryErrorInfo shed;
  shed.verdict = "adaptive-shed";
  shed.query_id = "q-3";
  shed.retry_after_ms = 75;
  shed.flight.spans.push_back({"plan", 0.5, 1.25});
  shed.flight.counter_deltas.push_back({"sjos_x_total", 3});
  EXPECT_EQ(
      EncodeDoneError(
          "e2", Status::ResourceExhausted("adaptive admission shed"), shed),
      "{\"id\":\"e2\",\"ok\":false,\"done\":true,\"code\":"
      "\"ResourceExhausted\",\"error\":\"adaptive admission shed\","
      "\"verdict\":\"adaptive-shed\",\"query_id\":\"q-3\","
      "\"retry_after_ms\":75,\"flight\":{\"spans\":[{\"name\":\"plan\","
      "\"start_ms\":0.500,\"dur_ms\":1.250}],\"counter_deltas\":"
      "{\"sjos_x_total\":3}}}");
}

TEST(EncoderGoldenTest, RowsDecodeToTheCanonicalOrder) {
  Rng rng(77);
  QueryResult qr = MakeResult({6, 0, 3, 1}, {});
  for (int r = 0; r < 500; ++r) {
    const NodeId row[4] = {
        static_cast<NodeId>(rng.NextBelow(4)),
        static_cast<NodeId>(rng.NextBelow(uint64_t{1} << 32)),
        static_cast<NodeId>(rng.NextBelow(3)),
        static_cast<NodeId>(rng.NextBelow(1000))};
    qr.tuples.AppendRow(row);
  }
  Result<JsonValue> v = ParseJson(EncodeDoneResult("r6", qr, 1 << 20));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const std::vector<JsonValue>& rows =
      v.value().Find("result")->Find("rows")->array();
  const std::vector<std::vector<NodeId>> canonical = qr.tuples.Canonical();
  ASSERT_EQ(rows.size(), canonical.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(rows[r].array().size(), 4u);
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(rows[r].array()[c].number_value(),
                static_cast<double>(canonical[r][c]));
    }
  }
}

TEST(JsonTest, MutatedResponsesParseOrFailCleanly) {
  // Byte-level fuzz of the client side: flipped, inserted, deleted and
  // truncated bytes in real responses. Every input must either parse or
  // fail with ParseError; the sanitizer builds catch anything worse.
  QueryErrorInfo shed;
  shed.verdict = "adaptive-shed";
  shed.query_id = "q-3";
  shed.retry_after_ms = 75;
  shed.flight.spans.push_back({"plan", 0.5, 1.25});
  const std::string corpus[] = {
      EncodeDoneResult("r1", MixedResult(), 1 << 20),
      EncodeDoneError("e2", Status::ResourceExhausted("shed"), shed),
      EncodeErrorResponse("q9", Status::InvalidArgument("bad \"query\"\n"),
                          120),
      "{\"s\":\"\\ud83d\\ude00\\u0041\",\"n\":[-0.5e-3,1E+2,true,null]}",
  };
  const char kInteresting[] = "{}[]\",:\\-+.eE0123456789tfnu \x01\x80\xff";
  Rng rng(4242);
  size_t parsed = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = corpus[rng.NextBelow(std::size(corpus))];
    const uint64_t edits = 1 + rng.NextBelow(4);
    for (uint64_t e = 0; e < edits && !text.empty(); ++e) {
      const size_t pos = rng.NextBelow(text.size());
      const char byte =
          rng.NextBool(0.5)
              ? kInteresting[rng.NextBelow(sizeof(kInteresting) - 1)]
              : static_cast<char>(rng.NextBelow(256));
      switch (rng.NextBelow(4)) {
        case 0:
          text[pos] = byte;
          break;
        case 1:
          text.insert(text.begin() + pos, byte);
          break;
        case 2:
          text.erase(pos, 1);
          break;
        default:
          text.resize(pos);
          break;
      }
    }
    Result<JsonValue> v = ParseJson(text);
    if (v.ok()) {
      ++parsed;
    } else {
      ASSERT_EQ(v.status().code(), StatusCode::kParseError)
          << v.status().ToString();
      ASSERT_EQ(v.status().message().rfind("JSON error at byte ", 0), 0u)
          << v.status().ToString();
    }
  }
  // Some mutations (a digit for a digit, a byte inside a string) keep the
  // document valid; the rest must all have been rejected cleanly.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 20000u);
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
