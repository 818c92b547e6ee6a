// Allocation regression test for the wire decoder: ParseJson builds a
// whole result frame into one arena, so a 100K-row result costs a few
// hundred heap allocations (one per 64 KiB block), not one per row, and a
// second parse takes the first tree's blocks back from the free list. This
// binary replaces the global operator new with a counting one; it is its
// own executable so no other test sees the counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/json.h"
#include "service/engine.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so no allocation made here is freed
// by the runtime's own operator delete (a sanitizer build would report the
// mismatch).
void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sjos {
namespace net {
namespace {

constexpr int kRows = 100'000;

/// A done frame of kRows rows of 4 ids, as the server sends it.
std::string ResultFrame() {
  QueryResult qr;
  qr.tuples = TupleSet(std::vector<PatternNodeId>{0, 1, 2, 3});
  Rng rng(19);
  for (int r = 0; r < kRows; ++r) {
    const NodeId row[4] = {static_cast<NodeId>(rng.NextBelow(200'000)),
                           static_cast<NodeId>(rng.NextBelow(200'000)),
                           static_cast<NodeId>(rng.NextBelow(200'000)),
                           static_cast<NodeId>(rng.NextBelow(200'000))};
    qr.tuples.AppendRow(row);
  }
  qr.stats.result_rows = kRows;
  return EncodeDoneResult("alloc", qr, kFrameAbsoluteMaxPayload);
}

TEST(JsonAllocTest, ResultFrameParsesInFewAllocations) {
  const std::string frame = ResultFrame();
  const uint64_t before = g_allocations.load();
  Result<JsonValue> v = ParseJson(frame);
  const uint64_t parse_allocations = g_allocations.load() - before;
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* rows = v.value().Find("result")->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array().size(), static_cast<size_t>(kRows));
  EXPECT_EQ(rows->array()[0].array().size(), 4u);
  EXPECT_LT(parse_allocations, 1000u);

  // A deep copy knows its size up front: one arena, one allocation.
  const uint64_t before_copy = g_allocations.load();
  const JsonValue copy = v.value();
  EXPECT_EQ(g_allocations.load() - before_copy, 1u);
  EXPECT_EQ(copy.Find("result")->Find("rows")->array().size(),
            static_cast<size_t>(kRows));
}

TEST(JsonAllocTest, SecondParseReusesTheFirstTreesBlocks) {
  const std::string frame = ResultFrame();
  ASSERT_TRUE(ParseJson(frame).ok());
  // The first tree's blocks and the parser's stacks were kept when it
  // died; a second parse of the same frame takes them back. What is left
  // is the one run longer than a block, the 1e5-item rows array.
  const uint64_t before = g_allocations.load();
  Result<JsonValue> v = ParseJson(frame);
  const uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value().Find("result")->Find("rows")->array().size(),
            static_cast<size_t>(kRows));
  EXPECT_LE(allocations, 4u);
}

TEST(JsonAllocTest, FreeListStaysUnderItsBound) {
  // About 700K rows of 4 items: ~45 MB of 64 KiB blocks, over the bound.
  std::string text = "[";
  for (int r = 0; r < 700'000; ++r) {
    if (r > 0) text += ',';
    text += "[1,22,333,4444]";
  }
  text += ']';
  {
    Result<JsonValue> v = ParseJson(text);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ASSERT_EQ(v.value().array().size(), 700'000u);
  }
  // The tree died with more blocks than the list keeps: it is full, and
  // no fuller.
  EXPECT_EQ(JsonBlockPoolBytes(), kJsonBlockPoolMaxBytes);
  ASSERT_TRUE(ParseJson(text).ok());
  EXPECT_EQ(JsonBlockPoolBytes(), kJsonBlockPoolMaxBytes);
}

#ifdef __SANITIZE_ADDRESS__
TEST(JsonAllocDeathTest, ViewOutlivingItsRootIsCaught) {
  // A listed block is poisoned, so reading through a view of a dead tree
  // still reports although the block was never freed.
  EXPECT_DEATH(
      {
        std::string_view text;
        {
          Result<JsonValue> v = ParseJson(R"({"key":"a string value"})");
          text = v.value().Find("key")->string_value();
        }
        std::printf("%c\n", text[0]);
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace net
}  // namespace sjos
