// Wire-protocol hardening tests: frame round trips over a socketpair, the
// update replay ring, the strict JSON parser, DecodeRequest's validation,
// and a malformed-frame corpus fired at a live loopback server — every
// entry must come back as one clean error response (or, for unrecoverable
// framing, one response then a close), and the server must stay fully
// serviceable afterwards. Run under ASan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
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
#include "common/str_util.h"
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
// Framing over a socketpair (no server): round trips, clean EOF vs torn
// frames, oversize prefixes

/// Sends each of `payloads` as one frame into a fresh socketpair, closes
/// the sending end, and returns the receiving end.
int FramedPipe(const std::vector<std::string>& payloads) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  for (const std::string& payload : payloads) {
    EXPECT_TRUE(SendFrame(sv[1], payload).ok());
  }
  ::close(sv[1]);
  return sv[0];
}

TEST(FrameTest, RoundTrip) {
  const std::string sent = "{\"verb\":\"ping\"}";
  const int fd = FramedPipe({sent});
  std::string payload;
  bool clean_eof = true;
  Status st = RecvFrame(fd, 1 << 20, &payload, &clean_eof);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(clean_eof);
  EXPECT_EQ(payload, sent);
  // Exactly the header and the payload went over the wire.
  st = RecvFrame(fd, 1 << 20, &payload, &clean_eof);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(clean_eof);
  ::close(fd);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  const int fd = FramedPipe({""});
  std::string payload = "stale";
  bool clean_eof = true;
  Status st = RecvFrame(fd, 16, &payload, &clean_eof);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(clean_eof);
  EXPECT_TRUE(payload.empty());
  ::close(fd);
}

TEST(FrameTest, OversizeDeclaredLengthIsResourceExhausted) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char header[4] = {'\x7f', '\x00', '\x00', '\x01'};  // ~2 GiB
  ASSERT_EQ(::send(sv[1], header, sizeof(header), 0), 4);
  ASSERT_EQ(::send(sv[1], "x", 1, 0), 1);
  std::string payload;
  bool clean_eof = true;
  Status st = RecvFrame(sv[0], 16, &payload, &clean_eof);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(st.message().find("limit of 16"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(clean_eof);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(FrameTest, BackToBackFrames) {
  const int fd = FramedPipe({"first", "second"});
  std::string payload;
  bool clean_eof = true;
  ASSERT_TRUE(RecvFrame(fd, 64, &payload, &clean_eof).ok());
  EXPECT_EQ(payload, "first");
  ASSERT_TRUE(RecvFrame(fd, 64, &payload, &clean_eof).ok());
  EXPECT_EQ(payload, "second");
  EXPECT_FALSE(clean_eof);
  ASSERT_TRUE(RecvFrame(fd, 64, &payload, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  ::close(fd);
}

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
  // returns a short count. The writer sends into a small socket buffer
  // while a third thread signals it every 50 us, so a multi-MB frame goes
  // out in many short writes that end inside the header or the payload;
  // RecvFrame must still read both frames whole and in order.
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
  std::atomic<bool> reading{true};
  std::thread poker([&] {
    while (reading.load()) {
      ::pthread_kill(writer.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::string first;
  std::string second = "stale";
  bool clean_eof = true;
  const Status got_first = RecvFrame(sv[1], big.size(), &first, &clean_eof);
  const Status got_second = RecvFrame(sv[1], big.size(), &second, &clean_eof);
  // Unblocks a writer that is still sending (when the frames came back
  // wrong) instead of leaving the join below to hang.
  ::shutdown(sv[1], SHUT_RDWR);
  reading.store(false);
  poker.join();
  writer.join();
  ::close(sv[1]);
  ASSERT_EQ(::sigaction(SIGUSR1, &saved, nullptr), 0);
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(got_first.ok()) << got_first.ToString();
  EXPECT_TRUE(first == big);
  ASSERT_TRUE(got_second.ok()) << got_second.ToString();
  EXPECT_FALSE(clean_eof);
  EXPECT_TRUE(second.empty());
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
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kParseError);
    }
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

TEST(JsonTest, ChildrenStayPutWhenTheRootMoves) {
  Result<JsonValue> parsed =
      ParseJson("{\"rows\":[[1,2],[3,4]],\"s\":\"text\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* rows = parsed.value().Find("rows");
  const JsonValue* s = parsed.value().Find("s");
  ASSERT_NE(rows, nullptr);
  ASSERT_NE(s, nullptr);

  // Moving the Result moves only the root; the children live in the
  // arena, so pointers into the tree stay valid.
  Result<JsonValue> moved = std::move(parsed);
  EXPECT_EQ(moved.value().Find("rows"), rows);
  EXPECT_EQ(rows->array()[1].array()[0].number_value(), 3.0);
  EXPECT_EQ(s->string_value(), "text");

  // A poll loop move-assigns each response over the previous one.
  Result<JsonValue> response = ParseJson("{\"ok\":true,\"done\":false}");
  ASSERT_TRUE(response.ok());
  response = std::move(moved);
  EXPECT_EQ(response.value().Find("rows"), rows);
  EXPECT_EQ(rows->array()[1].array()[1].number_value(), 4.0);
  EXPECT_EQ(s->string_value(), "text");
  response = ParseJson("[\"next\"]");  // frees the earlier tree
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().array()[0].string_value(), "next");
}

TEST(JsonTest, CopiedChildOutlivesItsRoot) {
  JsonValue child;
  {
    Result<JsonValue> root = ParseJson(
        "{\"a\":{\"b\":[\"x\",{\"c\":\"yz\"}],\"n\":7},\"d\":1}");
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    child = *root.value().Find("a");
  }  // the root and its arena are gone
  ASSERT_TRUE(child.is_object());
  const JsonValue* b = child.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array().size(), 2u);
  EXPECT_EQ(b->array()[0].string_value(), "x");
  EXPECT_EQ(b->array()[1].Find("c")->string_value(), "yz");
  EXPECT_EQ(child.Find("n")->number_value(), 7.0);

  JsonValue& alias = child;
  child = alias;
  child = std::move(alias);
  ASSERT_TRUE(child.is_object());
  EXPECT_EQ(child.Find("b")->array()[1].Find("c")->string_value(), "yz");

  // Assigning a value one of its own children copies the child before
  // the old tree is freed.
  child = *child.Find("b");
  ASSERT_TRUE(child.is_array());
  EXPECT_EQ(child.array()[0].string_value(), "x");
  EXPECT_EQ(child.array()[1].Find("c")->string_value(), "yz");
}

TEST(JsonTest, TreesDieOnAnotherThreadThanTheirParse) {
  // A dead tree's blocks go to one process-wide free list, whichever
  // thread drops it, while parses on other threads take blocks from it.
  // Each tree spans a few dozen blocks; TSan checks the list's hand-offs.
  std::string text = "{\"rows\":[";
  for (int r = 0; r < 20'000; ++r) {
    if (r > 0) text += ',';
    text += '[';
    text += std::to_string(r);
    text += ",7,\"s\"]";
  }
  text += "]}";
  auto check = [](const JsonValue& tree) {
    const JsonValue* rows = tree.Find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array().size(), 20'000u);
    EXPECT_EQ(rows->array()[19'999].array()[0].number_value(), 19'999.0);
    EXPECT_EQ(rows->array()[123].array()[2].string_value(), "s");
  };
  for (int round = 0; round < 20; ++round) {
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::thread reader([&check, tree = std::move(parsed).value()] {
      check(tree);
    });  // the tree dies on the reader thread
    Result<JsonValue> local = ParseJson(text);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    check(local.value());
    reader.join();
  }
}

/// `levels` nested arrays, innermost empty.
std::string NestedArrays(size_t levels) {
  return std::string(levels, '[') + std::string(levels, ']');
}

TEST(JsonTest, EmptyContainersAndExactMaxDepth) {
  Result<JsonValue> v = ParseJson(
      "{\"a\":[],\"o\":{},\"s\":\"\",\"n\":[[],{},\"\"]}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue& root = v.value();
  ASSERT_TRUE(root.Find("a")->is_array());
  EXPECT_TRUE(root.Find("a")->array().empty());
  ASSERT_TRUE(root.Find("o")->is_object());
  EXPECT_TRUE(root.Find("o")->members().empty());
  ASSERT_TRUE(root.Find("s")->is_string());
  EXPECT_TRUE(root.Find("s")->string_value().empty());
  const JsonValue* n = root.Find("n");
  ASSERT_EQ(n->array().size(), 3u);
  EXPECT_TRUE(n->array()[0].is_array() && n->array()[0].array().empty());
  EXPECT_TRUE(n->array()[1].is_object() && n->array()[1].members().empty());
  EXPECT_TRUE(n->array()[2].is_string());
  const JsonValue copy = root;
  EXPECT_TRUE(SameJson(copy, root));
  const JsonValue empty_copy = *root.Find("o");
  EXPECT_TRUE(empty_copy.is_object() && empty_copy.members().empty());

  // The root sits at depth 0, so max_depth + 1 levels parse and one more
  // does not, scalars and objects included.
  constexpr size_t kMaxDepth = 8;
  EXPECT_TRUE(ParseJson(NestedArrays(kMaxDepth + 1), kMaxDepth).ok());
  Result<JsonValue> deep = ParseJson(NestedArrays(kMaxDepth + 2), kMaxDepth);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().message(), "JSON error at byte 9: nesting too deep");
  Result<JsonValue> deep_number = ParseJson(
      std::string(kMaxDepth + 1, '[') + "1" + std::string(kMaxDepth + 1, ']'),
      kMaxDepth);
  ASSERT_FALSE(deep_number.ok());
  EXPECT_EQ(deep_number.status().message(),
            "JSON error at byte 9: nesting too deep");
  std::string objects;
  for (size_t i = 0; i < kMaxDepth; ++i) objects += "{\"k\":";
  Result<JsonValue> at_limit =
      ParseJson(objects + "1" + std::string(kMaxDepth, '}'), kMaxDepth);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  Result<JsonValue> past_limit = ParseJson(
      objects + "{\"k\":1}" + std::string(kMaxDepth, '}'), kMaxDepth);
  ASSERT_FALSE(past_limit.ok());
  EXPECT_NE(past_limit.status().message().find("nesting too deep"),
            std::string::npos);
}

/// Expects `text` to parse to an array of numbers equal, bit for bit, to
/// `want`.
void ExpectNumberArray(const std::string& text, size_t max_depth,
                       const std::vector<double>& want) {
  Result<JsonValue> v = ParseJson(text, max_depth);
  ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
  ASSERT_TRUE(v.value().is_array()) << text;
  const std::span<const JsonValue> items = v.value().array();
  ASSERT_EQ(items.size(), want.size()) << text;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(items[i].is_number()) << text << " item " << i;
    const double got = items[i].number_value();
    EXPECT_EQ(std::memcmp(&got, &want[i], sizeof(double)), 0)
        << text << " item " << i << ": " << got << " vs " << want[i];
  }
}

void ExpectNumberArray(const std::string& text,
                       const std::vector<double>& want) {
  ExpectNumberArray(text, 64, want);
}

TEST(JsonTest, IntegerRowEdgeCases) {
  // A result row of short unsigned integers is read straight into the
  // arena; anything else in it hands over to the general array loop. The
  // trees, messages and byte offsets below are the general parser's.
  ExpectJsonError("[01]", "2: expected ',' or ']' in array");
  ExpectNumberArray("[0,1]", {0, 1});
  ExpectNumberArray("[1 ,2]", {1, 2});
  ExpectNumberArray("[ 1,2 ]", {1, 2});
  ExpectNumberArray("[1,-2]", {1, -2});
  ExpectNumberArray("[1,2.5]", {1, 2.5});
  ExpectNumberArray("[1,2e3]", {1, 2000});
  ExpectNumberArray("[1,1E2]", {1, 100});
  ExpectNumberArray("[1,2,-0]", {1, 2, -0.0});
  ExpectNumberArray("[7,\t8\n,9\r]", {7, 8, 9});
  ExpectNumberArray("[4294967295,0]", {4294967295.0, 0});
  // 15 digits are read digit by digit; 16 go through from_chars, which
  // rounds 2^53 + 1 to even.
  ExpectNumberArray("[999999999999999,123456789012345]",
                    {999999999999999.0, 123456789012345.0});
  ExpectNumberArray("[1,1234567890123456,2]", {1, 1234567890123456.0, 2});
  ExpectNumberArray("[9007199254740993]", {9007199254740992.0});
  ExpectNumberArray("[3,99999999999999999999]", {3, 1e20});
  ExpectJsonError("[1,]", "3: invalid number");
  ExpectJsonError("[1", "2: expected ',' or ']' in array");
  ExpectJsonError("[1,2", "4: expected ',' or ']' in array");
  ExpectJsonError("[1,2]x", "5: trailing characters after the JSON document");
  ExpectJsonError("[1,2,01]", "6: expected ',' or ']' in array");
  ExpectJsonError("[1,2,3.]", "7: invalid number: missing fraction digits");
  ExpectJsonError("[1,2,3e]", "7: invalid number: missing exponent digits");
  ExpectJsonError("[1,2,-]", "6: invalid number");
  ExpectJsonError("[1,2 3]", "5: expected ',' or ']' in array");
  ExpectJsonError("[1,2,x]", "5: invalid number");
  ExpectJsonError("[1,2,1e400]", "10: number out of range");
  ExpectJsonError("[1,2,,3]", "5: invalid number");

  // Items that are not integers end the row's fast path mid-array.
  Result<JsonValue> mixed = ParseJson("[1,2,\"s\",[3],{\"k\":4},null,true,5]");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  const std::span<const JsonValue> items = mixed.value().array();
  ASSERT_EQ(items.size(), 8u);
  EXPECT_EQ(items[1].number_value(), 2.0);
  EXPECT_EQ(items[2].string_value(), "s");
  EXPECT_EQ(items[3].array()[0].number_value(), 3.0);
  EXPECT_EQ(items[4].Find("k")->number_value(), 4.0);
  EXPECT_TRUE(items[5].is_null());
  EXPECT_TRUE(items[6].bool_value());
  EXPECT_EQ(items[7].number_value(), 5.0);
  EXPECT_TRUE(SameJson(ParseJson("[[1,2],[3]]").value(),
                       ParseJson("[ [ 1 , 2 ] , [ 3 ] ]").value()));

  // The integers of a row sit one level below it: a row whose integers
  // are at max_depth parses, one level deeper does not.
  constexpr size_t kMaxDepth = 8;
  Result<JsonValue> at_limit = ParseJson(
      std::string(kMaxDepth, '[') + "1,2" + std::string(kMaxDepth, ']'),
      kMaxDepth);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  const JsonValue* row = &at_limit.value();
  for (size_t level = 1; level < kMaxDepth; ++level) row = &row->array()[0];
  ASSERT_EQ(row->array().size(), 2u);
  EXPECT_EQ(row->array()[1].number_value(), 2.0);
  Result<JsonValue> past_limit = ParseJson(
      std::string(kMaxDepth + 1, '[') + "1,2" + std::string(kMaxDepth + 1, ']'),
      kMaxDepth);
  ASSERT_FALSE(past_limit.ok());
  EXPECT_EQ(past_limit.status().message(),
            "JSON error at byte 9: nesting too deep");

  // One row of 100K integers outgrows many arena blocks; so does one that
  // hands over to the general loop only at its last item.
  std::string big = "[";
  std::vector<double> want;
  for (uint32_t i = 0; i < 100'000; ++i) {
    const uint32_t id = i * 2654435761u;
    if (i > 0) big += ',';
    big += std::to_string(id);
    want.push_back(id);
  }
  ExpectNumberArray(big + "]", want);
  want.push_back(0.5);
  ExpectNumberArray(big + ",0.5]", want);
  ExpectJsonError(big + ",]",
                  std::to_string(big.size() + 1) + ": invalid number");
}

TEST(JsonTest, LongStringsAndEmbeddedNuls) {
  // Longer than one 64 KiB arena block, with and without escapes.
  std::string big(200'000, ' ');
  for (size_t i = 0; i < big.size(); ++i) big[i] = 'a' + i % 26;
  Result<JsonValue> v = ParseJson("[\"" + big + "\",\"" + big + "\\n\"]");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v.value().array().size(), 2u);
  EXPECT_EQ(v.value().array()[0].string_value(), big);
  EXPECT_EQ(v.value().array()[1].string_value(), big + "\n");
  const JsonValue copy = v.value();
  EXPECT_EQ(copy.array()[1].string_value(), big + "\n");

  // NUL bytes travel escaped and come back inside keys and values.
  const std::string nul("a\0b\0", 4);
  std::string text = "{";
  AppendJsonString(nul, &text);
  text += ':';
  AppendJsonString(nul, &text);
  text += '}';
  Result<JsonValue> obj = ParseJson(text);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_EQ(obj.value().members().size(), 1u);
  EXPECT_EQ(obj.value().members()[0].first, nul);
  EXPECT_EQ(obj.value().Find("a"), nullptr);
  const JsonValue* found = obj.value().Find(nul);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->string_value(), nul);
  const JsonValue made = JsonValue::MakeString(nul);
  EXPECT_EQ(JsonValue(made).string_value(), nul);
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

TEST(CodecTest, EveryWireQueryGetsAByteBound) {
  WireRequest req;
  // 0 asks for no bound of its own and gets the server-wide cap.
  EXPECT_EQ(req.ToQueryOptions().max_live_bytes, kMaxQueryLiveBytes);
  // A smaller request is kept; a larger one is clamped to the cap.
  req.max_live_bytes = 4096;
  EXPECT_EQ(req.ToQueryOptions().max_live_bytes, 4096u);
  req.max_live_bytes = kMaxQueryLiveBytes + 1;
  EXPECT_EQ(req.ToQueryOptions().max_live_bytes, kMaxQueryLiveBytes);
}

TEST(CodecTest, UpdateKeysPastTheNodeIdRangeAreRejected) {
  // 2^32 narrowed to a 32-bit NodeId is key 0, the root: it must be
  // refused, not wrapped onto another node.
  Result<WireRequest> parent = DecodeRequest(
      "{\"verb\":\"update\",\"id\":\"u1\",\"action\":\"insert\","
      "\"parent\":4294967296,\"xml\":\"<x/>\"}");
  ASSERT_FALSE(parent.ok());
  EXPECT_EQ(parent.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parent.status().message().find("'parent'"), std::string::npos)
      << parent.status().ToString();

  Result<WireRequest> node = DecodeRequest(
      "{\"verb\":\"update\",\"id\":\"u2\",\"action\":\"delete\","
      "\"node\":4294967296}");
  ASSERT_FALSE(node.ok());
  EXPECT_EQ(node.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(node.status().message().find("'node'"), std::string::npos)
      << node.status().ToString();

  // The largest NodeId still decodes.
  Result<WireRequest> max_key = DecodeRequest(
      "{\"verb\":\"update\",\"id\":\"u3\",\"action\":\"delete\","
      "\"node\":4294967295}");
  ASSERT_TRUE(max_key.ok()) << max_key.status().ToString();
  EXPECT_EQ(max_key.value().node, 4294967295u);
}

TEST(CodecTest, ErrorResponseShapesAreParseable) {
  const std::string shed = EncodeErrorResponse(
      "q9", Status::ResourceExhausted("at the connection limit"),
      /*retry_after_ms=*/120);
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

TEST(EncoderGoldenTest, ResultOverTheOldEstimateFits) {
  // The size guard once estimated 12 bytes per id, 12 more per row and
  // 4096 for the envelope: 4384 bytes for this 335-byte reply.
  const std::string reply = EncodeDoneResult("r1", MixedResult(), 1 << 20);
  ASSERT_LT(reply.size(), 1000u);
  EXPECT_EQ(EncodeDoneResult("r1", MixedResult(), 1000), reply);

  // A Pers-like result: 100K rows of five ids, ~37 bytes a row against
  // the old estimate's 72.
  Rng rng(9);
  QueryResult qr = MakeResult({0, 3, 4, 1, 2}, {});
  for (int r = 0; r < 100'000; ++r) {
    NodeId row[5];
    for (NodeId& id : row) id = static_cast<NodeId>(rng.NextBelow(200'000));
    qr.tuples.AppendRow(row);
  }
  const std::string big = EncodeDoneResult("r7", qr, kFrameAbsoluteMaxPayload);
  ASSERT_EQ(big.rfind("{\"id\":\"r7\",\"ok\":true,", 0), 0u);
  ASSERT_LT(big.size(), size_t{100'000} * (5 + 1) * 12);
  EXPECT_EQ(EncodeDoneResult("r7", qr, big.size()), big);
}

TEST(EncoderGoldenTest, OneByteOverTheLimitIsAnError) {
  const std::string reply = EncodeDoneResult("r5", MixedResult(), 1 << 20);
  EXPECT_EQ(EncodeDoneResult("r5", MixedResult(), reply.size()), reply);
  EXPECT_EQ(EncodeDoneResult("r5", MixedResult(), reply.size() - 1),
            "{\"id\":\"r5\",\"ok\":false,\"code\":\"ResourceExhausted\","
            "\"error\":\"result of 6 rows is too large for one response frame "
            "\xe2\x80\x94 tighten the query or raise max_frame_bytes\"}");
}

/// The row encoding EncodeDoneResult had before it wrote through the
/// canonical permutation: columns permuted into a flat row-major copy,
/// row indices stable-sorted, rows copied out in order, then written with
/// to_chars. The envelope is written field by field as the encoder does.
std::string ReferenceEncodeDoneResult(std::string_view id,
                                      const QueryResult& qr) {
  const TupleSet& t = qr.tuples;
  const size_t n = t.size();
  const size_t a = t.arity();
  std::vector<size_t> col_order(a);
  for (size_t c = 0; c < a; ++c) col_order[c] = c;
  std::sort(col_order.begin(), col_order.end(), [&](size_t x, size_t y) {
    return t.slots()[x] < t.slots()[y];
  });
  std::vector<NodeId> permuted(n * a);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < a; ++c) permuted[r * a + c] = t.At(r, col_order[c]);
  }
  std::vector<size_t> order(n);
  for (size_t r = 0; r < n; ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return std::lexicographical_compare(
        permuted.begin() + x * a, permuted.begin() + (x + 1) * a,
        permuted.begin() + y * a, permuted.begin() + (y + 1) * a);
  });
  std::vector<NodeId> sorted;
  sorted.reserve(n * a);
  for (size_t r : order) {
    sorted.insert(sorted.end(), permuted.begin() + r * a,
                  permuted.begin() + (r + 1) * a);
  }
  std::vector<PatternNodeId> slots = t.slots();
  std::sort(slots.begin(), slots.end());

  std::string out;
  AppendOkHead(id, &out);
  out += ",\"done\":true,\"result\":{\"slots\":[";
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonUint(static_cast<uint64_t>(slots[i]), &out);
  }
  out += "],\"rows\":[";
  for (size_t r = 0; r < n; ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (size_t c = 0; c < a; ++c) {
      if (c > 0) out += ',';
      char buf[16];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                    sorted[r * a + c]).ptr);
    }
    out += ']';
  }
  out += "],\"row_count\":";
  AppendJsonUint(n, &out);
  out += ",\"stats\":{\"result_rows\":";
  AppendJsonUint(qr.stats.result_rows, &out);
  out += ",\"wall_ms\":" + FormatDouble(qr.stats.wall_ms, 3);
  out += ",\"peak_live_rows\":";
  AppendJsonUint(qr.stats.peak_live_rows, &out);
  out += ",\"peak_live_bytes\":";
  AppendJsonUint(qr.stats.peak_live_bytes, &out);
  out += ",\"max_q_error\":" + FormatDouble(qr.stats.max_q_error, 4);
  out += "},\"algorithm\":";
  AppendJsonString(qr.planned.algorithm, &out);
  out += ",\"cache_hit\":";
  out += qr.planned.cache_hit ? "true" : "false";
  out += ",\"fallback_from\":";
  AppendJsonString(qr.planned.fallback_from, &out);
  out += ",\"query_id\":";
  AppendJsonString(qr.query_id, &out);
  out += "}}";
  return out;
}

/// A random id of `digits` decimal digits (1-10); at either end of the
/// 32-bit range about one time in eight.
NodeId RandomId(Rng* rng, size_t digits) {
  if (rng->NextBelow(8) == 0) return rng->NextBool(0.5) ? 0 : 4294967295u;
  uint64_t lo = 1;
  for (size_t d = 1; d < digits; ++d) lo *= 10;
  const uint64_t hi = std::min<uint64_t>(lo * 10, uint64_t{1} << 32);
  if (digits == 1) lo = 0;
  return static_cast<NodeId>(lo + rng->NextBelow(hi - lo));
}

TEST(EncoderGoldenTest, MatchesTheReferenceEncoderOnRandomResults) {
  Rng rng(2020);
  size_t checked = 0;
  for (size_t arity = 1; arity <= 8; ++arity) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<PatternNodeId> slots;
      for (size_t c = 0; c < arity; ++c) {
        slots.push_back(static_cast<PatternNodeId>(c * 2 + rng.NextBelow(2)));
      }
      rng.Shuffle(&slots);
      QueryResult qr = MakeResult(slots, {});
      const size_t sizes[] = {0, 1, 2, 1 + rng.NextBelow(300)};
      const size_t rows = trial < 4 ? sizes[trial] : sizes[3];
      // Each column draws from one digit length, or from all of them; a
      // third of the trials repeat a few rows many times over.
      std::vector<size_t> digits(arity);
      for (size_t& d : digits) d = rng.NextBelow(11);  // 0: any length
      std::vector<std::vector<NodeId>> pool(trial % 3 == 0 ? 3 : 0);
      for (size_t r = 0; r < rows; ++r) {
        std::vector<NodeId> row(arity);
        if (!pool.empty() && r >= pool.size() && rng.NextBool(0.9)) {
          row = pool[rng.NextBelow(pool.size())];
        } else {
          for (size_t c = 0; c < arity; ++c) {
            row[c] = RandomId(&rng, digits[c] == 0 ? 1 + rng.NextBelow(10)
                                                   : digits[c]);
          }
          if (r < pool.size()) pool[r] = row;
        }
        qr.tuples.AppendRow(row.data());
      }
      qr.stats.result_rows = rows;
      qr.stats.wall_ms = static_cast<double>(rng.NextBelow(100000)) / 7;
      qr.planned.algorithm = "DPP";
      qr.query_id = StrFormat("d%zu", checked);
      ASSERT_EQ(EncodeDoneResult("x", qr, kFrameAbsoluteMaxPayload),
                ReferenceEncodeDoneResult("x", qr))
          << "arity " << arity << " trial " << trial;
      ++checked;
    }
  }

  // 100K rows: presorted in canonical order, reversed, and shuffled.
  for (int shape = 0; shape < 3; ++shape) {
    const size_t arity = 3 + static_cast<size_t>(shape) * 2;
    std::vector<std::vector<NodeId>> rows(100'000, std::vector<NodeId>(arity));
    for (std::vector<NodeId>& row : rows) {
      for (size_t c = 0; c < arity; ++c) {
        row[c] = RandomId(&rng, c == 0 ? 1 + rng.NextBelow(10) : 1 + c % 6);
      }
    }
    std::vector<PatternNodeId> slots(arity);
    for (size_t c = 0; c < arity; ++c) slots[c] = static_cast<PatternNodeId>(c);
    if (shape < 2) std::sort(rows.begin(), rows.end());
    if (shape == 1) std::reverse(rows.begin(), rows.end());
    if (shape == 2) rng.Shuffle(&slots);
    QueryResult qr = MakeResult(slots, rows);
    qr.planned.algorithm = "FP";
    ASSERT_EQ(EncodeDoneResult("big", qr, kFrameAbsoluteMaxPayload),
              ReferenceEncodeDoneResult("big", qr))
        << "shape " << shape;
  }
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

  QueryErrorInfo memory;
  memory.verdict = "memory";
  memory.query_id = "q-3";
  EXPECT_EQ(
      EncodeDoneError("e2",
                      Status::ResourceExhausted(
                          "query 'q-3' live set 9216 bytes exceeds budget "
                          "of 8192 bytes"),
                      memory),
      "{\"id\":\"e2\",\"ok\":false,\"done\":true,\"code\":"
      "\"ResourceExhausted\",\"error\":\"query 'q-3' live set 9216 bytes "
      "exceeds budget of 8192 bytes\",\"verdict\":\"memory\","
      "\"query_id\":\"q-3\"}");
}

TEST(EncoderGoldenTest, RowsDecodeToTheCanonicalOrder) {
  // 100K rows: the decoded tree spans many arena blocks.
  Rng rng(77);
  QueryResult qr = MakeResult({6, 0, 3, 1}, {});
  for (int r = 0; r < 100'000; ++r) {
    const NodeId row[4] = {
        static_cast<NodeId>(rng.NextBelow(4)),
        static_cast<NodeId>(rng.NextBelow(uint64_t{1} << 32)),
        static_cast<NodeId>(rng.NextBelow(3)),
        static_cast<NodeId>(rng.NextBelow(1000))};
    qr.tuples.AppendRow(row);
  }
  Result<JsonValue> v =
      ParseJson(EncodeDoneResult("r6", qr, kFrameAbsoluteMaxPayload));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const std::span<const JsonValue> rows =
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
  QueryErrorInfo memory;
  memory.verdict = "memory";
  memory.query_id = "q-3";
  const std::string corpus[] = {
      EncodeDoneResult("r1", MixedResult(), 1 << 20),
      EncodeDoneError("e2",
                      Status::ResourceExhausted(
                          "query 'q-3' live set 9216 bytes exceeds budget "
                          "of 8192 bytes"),
                      memory),
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
  // Entry capacity alone would keep all 48 one-MiB replies.
  ReplayRing ring(/*capacity=*/256);
  const size_t kResponse = size_t{1} << 20;
  for (int i = 0; i < 48; ++i) {
    std::string id = "q";
    id += std::to_string(i);
    ring.Push(std::move(id), std::string(kResponse, 'x'));
    EXPECT_LE(ring.bytes(), kReplayRingMaxBytes);
  }
  EXPECT_EQ(ring.size(), kReplayRingMaxBytes / kResponse);
  EXPECT_EQ(ring.bytes(), ring.size() * kResponse);
  // The newest reply still replays; the oldest were evicted.
  const ReplayRing::Entry* newest = ring.Find("q47");
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->response.size(), kResponse);
  EXPECT_EQ(ring.Find("q0"), nullptr);

  // A single reply over the cap is kept (the newest always replays)
  // until the next push evicts it.
  ring.Push("huge", std::string(kReplayRingMaxBytes + 1, 'y'));
  EXPECT_EQ(ring.size(), 1u);
  ASSERT_NE(ring.Find("huge"), nullptr);
  ring.Push("small", "{}");
  EXPECT_EQ(ring.Find("huge"), nullptr);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.bytes(), 2u);
}

TEST(ReplayRingTest, EntryCapacityStillApplies) {
  ReplayRing ring(/*capacity=*/2);
  ring.Push("a", "1");
  ring.Push("b", "22");
  ring.Push("c", "333");
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.bytes(), 5u);
  EXPECT_EQ(ring.Find("a"), nullptr);
  ASSERT_NE(ring.Find("c"), nullptr);
  EXPECT_EQ(ring.Find("c")->response, "333");
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

TEST_F(ProtocolServerTest, ResubmitIsIdempotentAttachThenRerun) {
  // The duplicate-id contract: a re-submit of a live id attaches to the
  // running query (one execution, no error); once the result has been
  // consumed, the id is gone and a re-submit runs the read again.
  Client client = Connect();
  const std::string submit =
      "{\"verb\":\"submit\",\"id\":\"dup\",\"query\":\"manager[//name]\"}";
  const std::string poll =
      "{\"verb\":\"poll\",\"id\":\"dup\",\"wait_ms\":5000}";
  Result<JsonValue> first = client.Call(submit);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().Find("ok")->bool_value());

  Result<JsonValue> second = client.Call(submit);
  ASSERT_TRUE(second.ok());
  const JsonValue* attached = second.value().Find("attached");
  EXPECT_TRUE(second.value().Find("ok")->bool_value());
  ASSERT_NE(attached, nullptr);
  EXPECT_TRUE(attached->bool_value());

  // Consume the result; the id leaves the server.
  Result<JsonValue> done = client.Call(poll);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done.value().Find("ok")->bool_value());
  ASSERT_TRUE(done.value().Find("done")->bool_value());
  const JsonValue* result = done.value().Find("result");
  ASSERT_NE(result, nullptr);
  const double rows = result->Find("row_count")->number_value();

  // Third submit: a fresh run, queued like the first and not attached.
  Result<JsonValue> third = client.Call(submit);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.value().Find("ok")->bool_value());
  EXPECT_TRUE(third.value().Find("queued")->bool_value());
  EXPECT_EQ(third.value().Find("attached"), nullptr);
  EXPECT_EQ(third.value().Find("done"), nullptr);
  Result<JsonValue> rerun = client.Call(poll);
  ASSERT_TRUE(rerun.ok());
  ASSERT_TRUE(rerun.value().Find("done")->bool_value());
  const JsonValue* rerun_result = rerun.value().Find("result");
  ASSERT_NE(rerun_result, nullptr);
  EXPECT_DOUBLE_EQ(rerun_result->Find("row_count")->number_value(), rows);
}

}  // namespace
}  // namespace net
}  // namespace sjos
