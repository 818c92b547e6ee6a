#include <gtest/gtest.h>

#include "core/opt_status.h"
#include "query/pattern_parser.h"

namespace sjos {
namespace {

Pattern Pat(std::string_view text) {
  return std::move(ParsePattern(text)).value();
}

TEST(OptStatusTest, StartStatusSingletons) {
  Pattern p = Pat("a[//b[/c]]");
  OptStatus s = OptStatus::Start(p);
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.Level(), 0);
  EXPECT_FALSE(s.IsFinal(p.NumEdges()));
  for (PatternNodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(s.RepOf(i), i);
    EXPECT_EQ(s.OrderOf(i), i);
    EXPECT_EQ(s.ClusterMaskOf(i), MaskOf(i));
  }
}

TEST(OptStatusTest, AfterJoinMergesClusters) {
  Pattern p = Pat("a[//b[/c]]");
  OptStatus s0 = OptStatus::Start(p);
  // Join edge 0 = (a,b), output ordered by b (STD).
  OptStatus s1 = s0.AfterJoin(0, 1, 0, 1);
  EXPECT_EQ(s1.Level(), 1);
  EXPECT_EQ(s1.RepOf(0), 0);
  EXPECT_EQ(s1.RepOf(1), 0);
  EXPECT_EQ(s1.RepOf(2), 2);
  EXPECT_EQ(s1.OrderOf(0), 1);
  EXPECT_EQ(s1.OrderOf(1), 1);
  EXPECT_EQ(s1.ClusterMaskOf(0), NodeMask{0b011});
  EXPECT_TRUE(s1.EdgeJoined(0));
  EXPECT_FALSE(s1.EdgeJoined(1));
}

TEST(OptStatusTest, FinalAfterAllEdges) {
  Pattern p = Pat("a[//b[/c]]");
  OptStatus s = OptStatus::Start(p)
                    .AfterJoin(0, 1, 0, 1)   // {a,b} ord b
                    .AfterJoin(1, 2, 1, 2);  // all, ord c
  EXPECT_TRUE(s.IsFinal(p.NumEdges()));
  EXPECT_EQ(s.OrderOf(0), 2);
  EXPECT_EQ(s.ClusterMaskOf(1), NodeMask{0b111});
}

TEST(OptStatusTest, KeyDistinguishesPartitions) {
  Pattern p = Pat("a[//b][//c]");
  OptStatus s0 = OptStatus::Start(p);
  OptStatus ab = s0.AfterJoin(0, 1, 0, 0);
  OptStatus ac = s0.AfterJoin(0, 2, 1, 0);
  EXPECT_FALSE(ab.Key() == ac.Key());
  EXPECT_FALSE(ab.Key() == s0.Key());
}

TEST(OptStatusTest, KeyDistinguishesOrderings) {
  Pattern p = Pat("a[//b]");
  OptStatus s0 = OptStatus::Start(p);
  OptStatus by_a = s0.AfterJoin(0, 1, 0, 0);
  OptStatus by_b = s0.AfterJoin(0, 1, 0, 1);
  EXPECT_FALSE(by_a.Key() == by_b.Key());
}

TEST(OptStatusTest, KeyEqualForSamePartitionDifferentPath) {
  Pattern p = Pat("a[//b[/c]]");
  // Join (a,b) then (b,c), always ordering by the descendant, versus
  // joining (b,c) then (a,b): same final partition, same order node c...
  OptStatus path1 =
      OptStatus::Start(p).AfterJoin(0, 1, 0, 1).AfterJoin(1, 2, 1, 2);
  OptStatus path2 =
      OptStatus::Start(p).AfterJoin(1, 2, 1, 1).AfterJoin(0, 1, 0, 2);
  // Orders coincide only if the last move orders by c in both paths.
  EXPECT_TRUE(path1.Key() == path2.Key());
}

TEST(OptStatusTest, ToStringListsClusters) {
  Pattern p = Pat("a[//b[/c]]");
  OptStatus s = OptStatus::Start(p).AfterJoin(0, 1, 0, 1);
  EXPECT_EQ(s.ToString(), "{0,1|ord 1}{2|ord 2}");
}

TEST(StatusKeyTest, HashSpreadsDistinctKeys) {
  StatusKeyHash hash;
  StatusKey a{1, 2};
  StatusKey b{2, 1};
  EXPECT_NE(hash(a), hash(b));
}

}  // namespace
}  // namespace sjos
