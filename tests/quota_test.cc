// TenantQuotaTable on a synthetic clock: the in-flight cap, the qps and
// write token buckets (capacity max(1, rate), starting full), their shed
// reasons and exact retry_after_ms hints, SetQuota's reset, and the
// live-bytes clamp.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "net/quota.h"

namespace sjos {
namespace net {
namespace {

constexpr uint64_t kStart = 5'000'000;  // any monotonic origin

TEST(TenantQuotaTest, FreshTenantAdmitsOneSecondOfBurstThenShedsQps) {
  TenantQuota quota;
  quota.qps = 3.0;
  TenantQuotaTable table(quota);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(table.Admit("t", kStart).admitted) << "request " << i;
  }
  TenantQuotaTable::Decision shed = table.Admit("t", kStart);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "qps");
  // One token at 3/s is 333.3 ms away; the hint rounds up.
  EXPECT_EQ(shed.retry_after_ms, 334u);
  EXPECT_EQ(table.InFlight("t"), 3u);
}

TEST(TenantQuotaTest, FractionalQpsStillAdmitsOne) {
  TenantQuota quota;
  quota.qps = 0.5;  // capacity max(1, 0.5) = 1
  TenantQuotaTable table(quota);
  EXPECT_TRUE(table.Admit("t", kStart).admitted);
  TenantQuotaTable::Decision shed = table.Admit("t", kStart);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "qps");
  EXPECT_EQ(shed.retry_after_ms, 2000u);
}

TEST(TenantQuotaTest, BucketRefillsAfterTimePasses) {
  TenantQuota quota;
  quota.qps = 3.0;
  TenantQuotaTable table(quota);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(table.Admit("t", kStart).admitted);
  ASSERT_FALSE(table.Admit("t", kStart).admitted);

  // +400 ms refills 1.2 tokens: one admit, then 0.8 tokens short.
  const uint64_t later = kStart + 400'000;
  EXPECT_TRUE(table.Admit("t", later).admitted);
  TenantQuotaTable::Decision shed = table.Admit("t", later);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.retry_after_ms, 267u);

  // A long idle stretch refills only to capacity.
  const uint64_t much_later = later + 60'000'000;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(table.Admit("t", much_later).admitted) << "request " << i;
  }
  EXPECT_FALSE(table.Admit("t", much_later).admitted);
}

TEST(TenantQuotaTest, InFlightCapShedsWithFixedHintUntilRelease) {
  TenantQuota quota;
  quota.max_in_flight = 2;
  TenantQuotaTable table(quota);
  EXPECT_TRUE(table.Admit("t", kStart).admitted);
  EXPECT_TRUE(table.Admit("t", kStart).admitted);
  TenantQuotaTable::Decision shed = table.Admit("t", kStart);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "in_flight");
  EXPECT_EQ(shed.retry_after_ms, 50u);

  table.Release("t");
  EXPECT_EQ(table.InFlight("t"), 1u);
  EXPECT_TRUE(table.Admit("t", kStart).admitted);
  EXPECT_EQ(table.TotalInFlight(), 2u);
}

TEST(TenantQuotaTest, WriteBucketShedsIndependentlyOfReads) {
  TenantQuota quota;
  quota.qps = 1.0;
  quota.write_qps = 2.0;
  TenantQuotaTable table(quota);
  Counter& write_sheds = MetricsRegistry::Global().GetCounter(
      "sjos_server_shed_total", {{"reason", "write_qps"}});
  const uint64_t sheds_before = write_sheds.Value();

  EXPECT_TRUE(table.AdmitWrite("t", kStart).admitted);
  EXPECT_TRUE(table.AdmitWrite("t", kStart).admitted);
  TenantQuotaTable::Decision shed = table.AdmitWrite("t", kStart);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "write_qps");
  EXPECT_EQ(shed.retry_after_ms, 500u);
  EXPECT_EQ(write_sheds.Value(), sheds_before + 1);

  // The read bucket is untouched by writes, and writes take no slot.
  EXPECT_EQ(table.InFlight("t"), 0u);
  EXPECT_TRUE(table.Admit("t", kStart).admitted);
  EXPECT_EQ(table.Admit("t", kStart).reason, "qps");
  // ...and exhausting reads leaves the write bucket to refill on its own.
  EXPECT_TRUE(table.AdmitWrite("t", kStart + 500'000).admitted);
}

TEST(TenantQuotaTest, SetQuotaResetsBothBucketsAndKeepsInFlight) {
  TenantQuota quota;
  quota.qps = 1.0;
  quota.write_qps = 1.0;
  TenantQuotaTable table(quota);
  ASSERT_TRUE(table.Admit("t", kStart).admitted);
  ASSERT_TRUE(table.AdmitWrite("t", kStart).admitted);
  ASSERT_FALSE(table.Admit("t", kStart).admitted);
  ASSERT_FALSE(table.AdmitWrite("t", kStart).admitted);

  table.SetQuota("t", quota);
  EXPECT_EQ(table.InFlight("t"), 1u);
  EXPECT_TRUE(table.Admit("t", kStart).admitted);
  EXPECT_TRUE(table.AdmitWrite("t", kStart).admitted);
  EXPECT_EQ(table.InFlight("t"), 2u);
}

TEST(TenantQuotaTest, LiveBytesCapIsTheQuotasClamp) {
  TenantQuota quota;
  quota.max_live_bytes = 1000;
  TenantQuotaTable table(quota);
  EXPECT_EQ(table.LiveBytesCap("unseen"), 1000u);
  TenantQuota tight = quota;
  tight.max_live_bytes = 64;
  table.SetQuota("t", tight);
  EXPECT_EQ(table.LiveBytesCap("t"), 64u);
  EXPECT_EQ(table.LiveBytesCap("other"), 1000u);
}

}  // namespace
}  // namespace net
}  // namespace sjos
