// Deterministic tests for the retry machinery: backoff jitter bounds and
// cap, token-bucket exhaustion and refill, circuit-breaker state
// transitions — all on a fake clock, no real sleeps — plus the resilient
// client honoring server retry_after_ms hints over its own backoff
// (verified against a live quota-shedding server with the sleeps
// intercepted) and drawing its own jitter per client.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/json.h"
#include "net/resilient_client.h"
#include "net/retry_policy.h"
#include "net/server.h"
#include "query/workload.h"
#include "service/engine.h"

namespace sjos {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Backoff

TEST(BackoffTest, DelaysStayWithinBaseAndCap) {
  Backoff backoff(/*base_ms=*/10, /*cap_ms=*/200, /*rng_seed=*/42);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t d = backoff.NextDelayMs();
    EXPECT_GE(d, 10u);
    EXPECT_LE(d, 200u);
  }
}

TEST(BackoffTest, WalkIsDeterministicForAFixedSeed) {
  Backoff a(10, 2000, 7);
  Backoff b(10, 2000, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextDelayMs(), b.NextDelayMs());
}

TEST(BackoffTest, GrowsInExpectationAndResetRestarts) {
  // Decorrelated jitter: the first delay is drawn from [base, 3*base]; a
  // long walk reaches the cap region. After Reset the bound collapses to
  // the first-draw range again.
  Backoff backoff(10, 100000, 3);
  const uint64_t first = backoff.NextDelayMs();
  EXPECT_LE(first, 30u);
  uint64_t peak = 0;
  for (int i = 0; i < 64; ++i) peak = std::max(peak, backoff.NextDelayMs());
  EXPECT_GT(peak, 1000u);  // walked well past the first-draw range
  backoff.Reset();
  EXPECT_LE(backoff.NextDelayMs(), 30u);
}

TEST(BackoffTest, DegenerateBaseEqualsCap) {
  Backoff backoff(50, 50, 1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(backoff.NextDelayMs(), 50u);
}

// ---------------------------------------------------------------------------
// TokenBucket

TEST(TokenBucketTest, ExhaustsAtCapacityAndRefillsOverTime) {
  uint64_t now = 1'000'000;
  TokenBucket budget(/*capacity=*/3.0, /*refill_per_s=*/1.0);
  EXPECT_TRUE(budget.TryTake(now));
  EXPECT_TRUE(budget.TryTake(now));
  EXPECT_TRUE(budget.TryTake(now));
  EXPECT_FALSE(budget.TryTake(now));  // exhausted, no time passed

  now += 500'000;  // +0.5 s → +0.5 tokens: still under 1
  EXPECT_FALSE(budget.TryTake(now));
  now += 600'000;  // total +1.1 s → crosses 1 token
  EXPECT_TRUE(budget.TryTake(now));
  EXPECT_FALSE(budget.TryTake(now));
}

TEST(TokenBucketTest, RefillIsCappedAtCapacity) {
  uint64_t now = 0;
  TokenBucket budget(2.0, 10.0);
  now += 60'000'000;  // a minute of refill cannot exceed capacity
  EXPECT_DOUBLE_EQ(budget.Tokens(now), 2.0);
}

// ---------------------------------------------------------------------------
// CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  uint64_t now = 0;
  CircuitBreaker breaker(/*failure_threshold=*/3, /*open_ms=*/1000);
  EXPECT_TRUE(breaker.Allow(now));
  EXPECT_FALSE(breaker.RecordFailure(now));
  EXPECT_FALSE(breaker.RecordFailure(now));
  EXPECT_TRUE(breaker.RecordFailure(now));  // third failure → open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(now));
  EXPECT_FALSE(breaker.Allow(now + 999'000));  // still open
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCount) {
  uint64_t now = 0;
  CircuitBreaker breaker(3, 1000);
  breaker.RecordFailure(now);
  breaker.RecordFailure(now);
  breaker.RecordSuccess();  // streak broken
  breaker.RecordFailure(now);
  breaker.RecordFailure(now);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsOneProbeThenClosesOnSuccess) {
  uint64_t now = 0;
  CircuitBreaker breaker(1, 1000);
  EXPECT_TRUE(breaker.RecordFailure(now));  // open
  now += 1'000'000;                         // open_ms elapsed
  EXPECT_TRUE(breaker.Allow(now));          // the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(now));  // only ONE probe at a time
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(now));
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherFullWindow) {
  uint64_t now = 0;
  CircuitBreaker breaker(1, 1000);
  EXPECT_TRUE(breaker.RecordFailure(now));
  now += 1'000'000;
  EXPECT_TRUE(breaker.Allow(now));                // probe admitted
  EXPECT_TRUE(breaker.RecordFailure(now));        // probe failed → re-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(now + 999'000));     // a FULL window again
  EXPECT_TRUE(breaker.Allow(now + 1'000'000));
}

// ---------------------------------------------------------------------------
// ResilientClient + fake clock: the server's retry_after_ms hint overrides
// the client's own backoff schedule.

TEST(ResilientClientHintTest, ShedHintDrivesTheSleepNotBackoff) {
  Engine engine;
  DatasetScale scale;
  scale.base_nodes = 1'000;
  ASSERT_TRUE(
      engine.OpenDatabase(MakePaperDataset("Pers", scale).value()).ok());
  ServerOptions server_options;
  server_options.default_quota.qps = 0.001;  // ~everything past burst sheds
  QueryServer server(&engine, server_options);
  // The server's quota clock stands still too, so every shed carries the
  // same retry_after_ms however long the round trips take.
  server.SetQuotaClockForTesting([] { return uint64_t{1'000'000}; });
  ASSERT_TRUE(server.Start().ok());

  // Fake clock: time stands still (so the qps bucket never refills) and
  // every sleep is recorded instead of taken.
  std::vector<uint64_t> sleeps_us;
  ResilientClientOptions options;
  options.clock.now_us = [] { return uint64_t{1'000'000}; };
  options.clock.sleep_us = [&sleeps_us](uint64_t us) {
    sleeps_us.push_back(us);
  };
  options.retry.max_attempts = 3;
  options.retry.budget_tokens = 100.0;
  ResilientClient client("127.0.0.1", server.port());
  ResilientClient hinted("127.0.0.1", server.port(), options);

  // Burn the burst token with a throwaway submit.
  (void)client.Call(
      "{\"verb\":\"submit\",\"id\":\"burn\",\"query\":\"manager[//name]\"}");

  Result<JsonValue> shed = hinted.Call(
      "{\"verb\":\"submit\",\"id\":\"shed\",\"query\":\"manager[//name]\"}");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_FALSE(shed.value().Find("ok")->bool_value());
  const JsonValue* hint = shed.value().Find("retry_after_ms");
  ASSERT_NE(hint, nullptr);
  const uint64_t hint_us =
      static_cast<uint64_t>(hint->number_value()) * 1000;

  // max_attempts=3 → two retries, both slept for exactly the server hint.
  ASSERT_EQ(sleeps_us.size(), 2u);
  for (uint64_t s : sleeps_us) EXPECT_EQ(s, hint_us);
  EXPECT_EQ(hinted.stats().hint_waits, 2u);
  EXPECT_EQ(hinted.stats().retries, 2u);

  server.Stop();  // cancels and drains the burn query
}

// ---------------------------------------------------------------------------
// ResilientClient jitter: clients that fail together must not retry in
// lockstep, so each draws its own backoff sequence.

TEST(ResilientClientJitterTest, ClientsDrawDifferentBackoffSequences) {
  // A bound but never-listening socket: every connect is refused, and no
  // other process can take the port while the test holds it.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t closed_port = ntohs(addr.sin_port);

  auto record_backoff = [closed_port] {
    std::vector<uint64_t> sleeps_us;
    ResilientClientOptions options;
    options.clock.now_us = [] { return uint64_t{1'000'000}; };
    options.clock.sleep_us = [&sleeps_us](uint64_t us) {
      sleeps_us.push_back(us);
    };
    options.retry.max_attempts = 9;
    options.retry.budget_tokens = 100.0;
    options.retry.breaker_failure_threshold = 100;
    ResilientClient client("127.0.0.1", closed_port, options);
    Result<JsonValue> r = client.Call("{\"verb\":\"ping\"}");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    return sleeps_us;
  };
  const std::vector<uint64_t> first = record_backoff();
  const std::vector<uint64_t> second = record_backoff();
  ::close(fd);

  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(second.size(), 8u);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace net
}  // namespace sjos
