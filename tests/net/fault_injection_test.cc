// The fault matrix: every failure mode a socket can produce, injected
// deterministically at exact byte offsets through FaultTransport, against
// the full client pipeline (router -> wire encode -> transport ->
// reassemble -> decode). The contract under test: each fault surfaces as
// a clean typed status on exactly the affected items — kUnavailable for
// connection-level death (EOF, reset, timeout), kDataLoss for protocol
// corruption — and the client never hangs, never crashes (the suite runs
// under ASan and TSAN in CI) and recovers by reconnecting when the fault
// clears.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault_transport.h"
#include "net/loopback_transport.h"
#include "net/router_client.h"
#include "net/shard_server.h"
#include "net/tcp_transport.h"
#include "net_test_util.h"
#include "util/socket.h"

namespace sqp::net_test {
namespace {

using net::LoopbackTransportFactory;
using net::RouterClient;
using net::RouterOptions;
using net::ShardServer;
using net::TcpTransportFactory;

struct Fixture {
  ShardedTrainResult trained = TrainFleet(2);
  LoopbackFleet fleet = PublishLoopbackFleet(trained);
  std::unique_ptr<ShardedEngine> reference = PublishReferenceFleet(trained);
  std::vector<std::vector<QueryId>> contexts = FleetContexts(300);
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

RouterClient FaultyRouter(const Fixture& fixture, FaultPlan plan,
                          RouterOptions options = {},
                          size_t faulty_connections = SIZE_MAX) {
  return RouterClient(
      static_cast<uint32_t>(fixture.fleet.borrowed.size()),
      FaultyFactory(LoopbackTransportFactory(fixture.fleet.borrowed,
                                             /*fleet_version=*/1),
                    std::move(plan), faulty_connections),
      options);
}

void ExpectBitIdenticalToReference(const Fixture& fixture,
                                   const BatchResult& batch) {
  const std::vector<Recommendation> expected =
      fixture.reference->RecommendMany(AsRefs(fixture.contexts), 5)
          .results;
  ASSERT_EQ(batch.results.size(), expected.size());
  EXPECT_EQ(batch.served, expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch.statuses[i], StatusCode::kOk) << "item " << i;
    serve_test::ExpectSameRecommendation(expected[i], batch.results[i]);
  }
}

TEST(FaultInjectionTest, SlowPeerPartialWritesAndShortReadsStillServe) {
  const Fixture& fixture = SharedFixture();
  // 3-byte writes, 5-byte reads: every frame crosses the seam in dozens
  // of fragments, exactly what a congested peer produces. Served output
  // must be bit-identical to in-process.
  FaultPlan plan;
  plan.max_write_chunk = 3;
  plan.max_read_chunk = 5;
  RouterClient router = FaultyRouter(fixture, plan);
  const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
  EXPECT_TRUE(batch.admission.ok());
  ExpectBitIdenticalToReference(fixture, batch);
}

TEST(FaultInjectionTest, MidFrameDisconnectSurfacesUnavailable) {
  const Fixture& fixture = SharedFixture();
  // The response dies 4 bytes into its body (prelude is 16). With one
  // attempt and every connection faulty, the affected items must come
  // back kUnavailable — uncovered-empty, never garbage.
  FaultPlan plan;
  plan.truncate_read_at = 20;
  RouterClient router =
      FaultyRouter(fixture, plan, RouterOptions{.max_attempts = 1});
  const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
  EXPECT_EQ(batch.served, 0u);
  EXPECT_EQ(batch.admission.code(), StatusCode::kUnavailable);
  for (const StatusCode status : batch.statuses) {
    EXPECT_EQ(status, StatusCode::kUnavailable);
  }
  EXPECT_GE(router.stats().unavailable, 1u);
}

TEST(FaultInjectionTest, ReconnectAfterMidFrameDisconnectRecovers) {
  const Fixture& fixture = SharedFixture();
  // Only the first connection dialed is faulty (the router dials shards
  // lazily, so that is shard 0's); its reconnect gets a clean stream —
  // the graceful-restart path, ending bit-identical.
  FaultPlan plan;
  plan.truncate_read_at = 20;
  RouterClient router = FaultyRouter(fixture, plan,
                                     RouterOptions{.max_attempts = 2},
                                     /*faulty_connections=*/1);
  const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
  EXPECT_TRUE(batch.admission.ok());
  EXPECT_GE(router.stats().reconnects, 1u);
  ExpectBitIdenticalToReference(fixture, batch);
}

TEST(FaultInjectionTest, WriteFailureMidFrameRecoversOnReconnect) {
  const Fixture& fixture = SharedFixture();
  FaultPlan plan;
  plan.fail_write_at = 10;  // the connection dies mid-prelude of a request
  RouterClient router = FaultyRouter(fixture, plan,
                                     RouterOptions{.max_attempts = 2},
                                     /*faulty_connections=*/1);
  const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
  EXPECT_TRUE(batch.admission.ok());
  EXPECT_GE(router.stats().reconnects, 1u);
  ExpectBitIdenticalToReference(fixture, batch);
}

struct CorruptionCase {
  const char* name;
  size_t offset;
  uint8_t mask;
};

/// Response-stream corruptions that must surface kDataLoss: garbage
/// magic, an unsupported protocol version, an unknown frame type, an
/// oversized length prefix, and a body bit-flip caught by the CRC.
TEST(FaultInjectionTest, CorruptResponsesSurfaceDataLoss) {
  const Fixture& fixture = SharedFixture();
  const CorruptionCase cases[] = {
      {"garbage magic", 0, 0x5A},
      {"version mismatch", 4, 0x03},
      {"unknown frame type", 6, 0x40},
      {"oversized length prefix", 11, 0x7F},
      {"body bit flip", 20, 0x10},
  };
  for (const CorruptionCase& fault : cases) {
    FaultPlan plan;
    plan.flip_read = {{fault.offset, fault.mask}};
    RouterClient router =
        FaultyRouter(fixture, plan, RouterOptions{.max_attempts = 1});
    const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
    EXPECT_EQ(batch.served, 0u) << fault.name;
    EXPECT_EQ(batch.admission.code(), StatusCode::kDataLoss) << fault.name;
    for (const StatusCode status : batch.statuses) {
      EXPECT_EQ(status, StatusCode::kDataLoss) << fault.name;
    }
    EXPECT_GE(router.stats().wire_errors, 1u) << fault.name;
  }
}

TEST(FaultInjectionTest, DataLossNeverRetries) {
  const Fixture& fixture = SharedFixture();
  // Resending bytes cannot repair a corrupt stream, so kDataLoss must
  // surface immediately even with retries budgeted — a retry loop here
  // would mask real protocol bugs as flakiness.
  FaultPlan plan;
  plan.flip_read = {{20, 0x10}};
  RouterClient router =
      FaultyRouter(fixture, plan, RouterOptions{.max_attempts = 5});
  const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
  EXPECT_EQ(batch.served, 0u);
  EXPECT_EQ(router.stats().reconnects, 0u);
  EXPECT_GE(router.stats().wire_errors, 1u);
  for (const StatusCode status : batch.statuses) {
    EXPECT_EQ(status, StatusCode::kDataLoss);
  }
}

// ------------------------------------------------------ real-socket faults

TEST(FaultInjectionTest, ServerDropsGarbageConnectionAndKeepsServing) {
  const Fixture& fixture = SharedFixture();
  TempDir dir("garbage");
  const std::string manifest = dir.file("fleet.manifest");
  ASSERT_TRUE(
      SaveShardedSnapshots(fixture.trained.shards, CompactOptions{}, manifest)
          .ok());
  ShardServer server;
  ASSERT_TRUE(server.StartFromManifest(manifest, 0).ok());

  // A peer speaking garbage: the server must close exactly that
  // connection (we observe EOF) and count it dropped.
  auto garbage = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(garbage.ok());
  ASSERT_TRUE(
      SetIoTimeout(garbage->get(), std::chrono::seconds(5)).ok());
  std::vector<uint8_t> noise(64, 0xEE);
  ASSERT_TRUE(WriteAllFd(garbage->get(), noise.data(), noise.size()).ok());
  uint8_t buf[16];
  auto n = ReadSomeFd(garbage->get(), buf, sizeof(buf));
  EXPECT_FALSE(n.ok());  // closed by the server, not answered
  EXPECT_EQ(n.status().code(), StatusCode::kUnavailable);

  // And a well-behaved client is completely unaffected.
  RouterClient router(1,
                      TcpTransportFactory("127.0.0.1", {server.port()}));
  const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
  EXPECT_TRUE(batch.admission.ok());
  EXPECT_EQ(batch.served, fixture.contexts.size());
  EXPECT_GE(server.stats().connections_dropped, 1u);
  server.Stop();
}

TEST(FaultInjectionTest, StalledConnectionTimesOutInsteadOfHanging) {
  const Fixture& fixture = SharedFixture();
  // A listener that accepts but never answers: the router's read must
  // time out (kUnavailable) within the transport's io_timeout — the
  // "never hang" guarantee, bounded well below the test timeout.
  auto listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = BoundPort(listener->get());
  ASSERT_TRUE(port.ok());

  RouterClient router(
      1,
      TcpTransportFactory("127.0.0.1", {*port},
                          /*io_timeout=*/std::chrono::milliseconds(100)),
      RouterOptions{.max_attempts = 1});
  const auto start = std::chrono::steady_clock::now();
  const BatchResult batch = router.RecommendMany(AsRefs(fixture.contexts), 5);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch.served, 0u);
  for (const StatusCode status : batch.statuses) {
    EXPECT_EQ(status, StatusCode::kUnavailable);
  }
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

}  // namespace
}  // namespace sqp::net_test
