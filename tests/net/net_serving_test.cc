// End-to-end equivalence for the network tier: the same trained fleet
// served three ways — in-process ShardedEngine (the reference), loopback
// transport (full encode/decode pipeline, no sockets), and real TCP
// through ShardServer's epoll loop — must produce bit-identical
// recommendations, statuses, and QoS outcomes for shard counts {1, 2, 4}.
// Plus the cross-process lifecycle: deadline/lane propagation through the
// frame header, graceful shard restart onto a newer manifest generation,
// unpublished shards, and version pinning.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "net/loopback_transport.h"
#include "net/request_handler.h"
#include "net/router_client.h"
#include "net/shard_server.h"
#include "net/tcp_transport.h"
#include "net/wire_format.h"
#include "net_test_util.h"
#include "serve/deadline.h"
#include "util/socket.h"

namespace sqp::net_test {
namespace {

using net::LoopbackTransportFactory;
using net::RouterClient;
using net::RouterOptions;
using net::ShardServer;
using net::ShardServerOptions;
using net::TcpTransportFactory;

/// The full equivalence check: the in-process unbounded-deadline
/// reference vs the router's unbounded surface, then a bounded bulk-lane
/// batch vs the in-process bounded reference. Every score must match to
/// the bit (scores travel as raw f64 bits).
void ExpectServesBitIdentical(RouterClient& router,
                              const ShardedEngine& reference,
                              const std::vector<std::vector<QueryId>>& contexts,
                              size_t top_n) {
  const std::vector<Recommendation> expected =
      reference.RecommendMany(AsRefs(contexts), top_n).results;

  const BatchResult batch = router.RecommendMany(AsRefs(contexts), top_n);
  ASSERT_EQ(batch.results.size(), expected.size());
  EXPECT_TRUE(batch.admission.ok());
  EXPECT_EQ(batch.served, expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch.statuses[i], StatusCode::kOk) << "item " << i;
    serve_test::ExpectSameRecommendation(expected[i], batch.results[i]);
  }

  // A generous deadline on the bulk lane must not change a single bit,
  // and the networked QoS outcome must match in-process exactly.
  ServeOptions options;
  options.deadline = Deadline::After(std::chrono::seconds(30));
  options.lane = QosLane::kBulk;
  const BatchResult bounded =
      router.RecommendMany(AsRefs(contexts), top_n, options);
  const BatchResult in_process =
      reference.RecommendMany(AsRefs(contexts), top_n, options);
  ASSERT_EQ(bounded.results.size(), in_process.results.size());
  EXPECT_EQ(bounded.admission.code(), in_process.admission.code());
  EXPECT_EQ(bounded.served, in_process.served);
  EXPECT_EQ(bounded.degraded, in_process.degraded);
  EXPECT_EQ(bounded.effective_top_n, in_process.effective_top_n);
  for (size_t i = 0; i < in_process.results.size(); ++i) {
    EXPECT_EQ(bounded.statuses[i], in_process.statuses[i]) << "item " << i;
    serve_test::ExpectSameRecommendation(in_process.results[i],
                                         bounded.results[i]);
  }

  // Single-query convenience path (a one-item batch on the wire).
  const auto& context = contexts.front();
  const ServeResult single = router.Recommend(context, top_n);
  const ServeResult want = reference.Recommend(
      ContextRef(context.data(), context.size()), top_n, ServeOptions{});
  EXPECT_EQ(single.status, want.status);
  serve_test::ExpectSameRecommendation(want.recommendation,
                                       single.recommendation);
}

TEST(NetServingTest, LoopbackFleetIsBitIdenticalAcrossShardCounts) {
  const auto contexts = FleetContexts(300);
  for (const size_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    const ShardedTrainResult trained = TrainFleet(num_shards);
    const LoopbackFleet fleet = PublishLoopbackFleet(trained);
    const auto reference = PublishReferenceFleet(trained);
    RouterClient router(
        static_cast<uint32_t>(num_shards),
        LoopbackTransportFactory(fleet.borrowed, /*fleet_version=*/1));
    ExpectServesBitIdentical(router, *reference, contexts, 7);
    EXPECT_EQ(router.observed_fleet_version(), 1u);
    EXPECT_GE(router.stats().subrequests, num_shards);
  }
}

TEST(NetServingTest, TcpFleetColdBootsFromManifestAndIsBitIdentical) {
  const auto contexts = FleetContexts(300);
  for (const size_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    TempDir dir("tcp_equiv_" + std::to_string(num_shards));
    const std::string manifest = dir.file("fleet.manifest");
    const ShardedTrainResult trained = TrainFleet(num_shards);
    ASSERT_TRUE(
        SaveShardedSnapshots(trained.shards, CompactOptions{}, manifest).ok());

    // One real server per shard, each cold-booting its own blob off the
    // shared manifest — the production topology, in one process.
    std::vector<std::unique_ptr<ShardServer>> servers;
    std::vector<uint16_t> ports;
    for (size_t s = 0; s < num_shards; ++s) {
      auto server = std::make_unique<ShardServer>();
      ASSERT_TRUE(
          server->StartFromManifest(manifest, static_cast<uint32_t>(s)).ok());
      EXPECT_EQ(server->fleet_version(), 1u);
      EXPECT_EQ(server->fleet_num_shards(), num_shards);
      ports.push_back(server->port());
      servers.push_back(std::move(server));
    }

    auto reference = ShardedEngine::BootFromManifest(manifest);
    ASSERT_TRUE(reference.ok());
    RouterClient router(static_cast<uint32_t>(num_shards),
                        TcpTransportFactory("127.0.0.1", ports));
    ExpectServesBitIdentical(router, **reference, contexts, 7);
    EXPECT_EQ(router.observed_fleet_version(), 1u);
    for (auto& server : servers) {
      EXPECT_GE(server->stats().frames_served, 1u);
      server->Stop();
    }
  }
}

TEST(NetServingTest, ExpiredDeadlineShedsExactlyLikeInProcess) {
  const ShardedTrainResult trained = TrainFleet(2);
  const LoopbackFleet fleet = PublishLoopbackFleet(trained);
  const auto reference = PublishReferenceFleet(trained);
  const auto contexts = FleetContexts(64);
  RouterClient router(2, LoopbackTransportFactory(fleet.borrowed, 1));

  // A deadline already expired at send time travels as a zero budget and
  // must shed server-side on arrival — the same outcome, per item, as
  // handing the expired deadline to the in-process engine.
  ServeOptions options;
  options.deadline =
      Deadline::At(Deadline::Clock::now() - std::chrono::seconds(1));
  const BatchResult batch = router.RecommendMany(AsRefs(contexts), 5, options);
  const BatchResult in_process =
      reference->RecommendMany(AsRefs(contexts), 5, options);
  EXPECT_EQ(batch.admission.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(batch.admission.code(), in_process.admission.code());
  EXPECT_EQ(batch.served, in_process.served);
  EXPECT_EQ(batch.effective_top_n, in_process.effective_top_n);
  ASSERT_EQ(batch.statuses.size(), in_process.statuses.size());
  for (size_t i = 0; i < batch.statuses.size(); ++i) {
    EXPECT_EQ(batch.statuses[i], StatusCode::kDeadlineExceeded);
    EXPECT_EQ(batch.statuses[i], in_process.statuses[i]);
  }
}

TEST(NetServingTest, UnpublishedShardAnswersUnavailableLikeInProcess) {
  const ShardedTrainResult trained = TrainFleet(2);
  const auto contexts = FleetContexts(200);

  // Shard 1 exists but never published — its routed items must come back
  // kUnavailable with uncovered-empty results, exactly as ShardedEngine
  // treats a dead shard; shard 0's answers are unaffected.
  LoopbackFleet fleet;
  for (size_t s = 0; s < 2; ++s) {
    fleet.engines.push_back(std::make_unique<RecommenderEngine>(
        EngineOptions{.num_threads = 1}));
    fleet.borrowed.push_back(fleet.engines.back().get());
  }
  fleet.engines[0]->Publish(trained.shards[0]);

  auto reference = std::make_unique<ShardedEngine>(
      ShardedEngineOptions{.num_shards = 2, .num_threads = 1});
  reference->shard(0)->Publish(trained.shards[0]);

  RouterClient router(2, LoopbackTransportFactory(fleet.borrowed, 1));
  const BatchResult batch = router.RecommendMany(AsRefs(contexts), 5);
  const BatchResult in_process =
      reference->RecommendMany(AsRefs(contexts), 5, ServeOptions{});
  ASSERT_EQ(batch.results.size(), in_process.results.size());
  EXPECT_EQ(batch.served, in_process.served);
  size_t unavailable = 0;
  for (size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.statuses[i], in_process.statuses[i]) << "item " << i;
    if (batch.statuses[i] == StatusCode::kUnavailable) ++unavailable;
    serve_test::ExpectSameRecommendation(in_process.results[i],
                                         batch.results[i]);
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_LT(unavailable, batch.results.size());
}

TEST(NetServingTest, FleetVersionPinRejectsMismatchedShards) {
  const ShardedTrainResult trained = TrainFleet(2);
  const LoopbackFleet fleet = PublishLoopbackFleet(trained);
  const auto contexts = FleetContexts(64);

  // The router pins manifest version 2; the fleet serves version 1 — every
  // item must answer kFailedPrecondition, nothing served.
  RouterClient router(2, LoopbackTransportFactory(fleet.borrowed, 1),
                      RouterOptions{.expected_fleet_version = 2});
  const BatchResult batch = router.RecommendMany(AsRefs(contexts), 5);
  EXPECT_EQ(batch.served, 0u);
  EXPECT_EQ(batch.admission.code(), StatusCode::kFailedPrecondition);
  for (const StatusCode status : batch.statuses) {
    EXPECT_EQ(status, StatusCode::kFailedPrecondition);
  }
}

TEST(NetServingTest, GracefulShardRestartReResolvesOntoNewManifest) {
  TempDir dir("restart");
  const std::string manifest = dir.file("fleet.manifest");
  const auto contexts = FleetContexts(200);

  const ShardedTrainResult v1 = TrainFleet(2, /*version=*/1);
  ASSERT_TRUE(SaveShardedSnapshots(v1.shards, CompactOptions{}, manifest).ok());

  auto shard0 = std::make_unique<ShardServer>();
  ASSERT_TRUE(shard0->StartFromManifest(manifest, 0).ok());
  ShardServer shard1;
  ASSERT_TRUE(shard1.StartFromManifest(manifest, 1).ok());
  const uint16_t shard0_port = shard0->port();

  auto reference = ShardedEngine::BootFromManifest(manifest);
  ASSERT_TRUE(reference.ok());

  RouterClient router(
      2, TcpTransportFactory("127.0.0.1", {shard0_port, shard1.port()}),
      RouterOptions{.max_attempts = 2});
  BatchResult before = router.RecommendMany(AsRefs(contexts), 5);
  EXPECT_TRUE(before.admission.ok());
  EXPECT_EQ(router.observed_fleet_version(), 1u);

  // Shard 0 bounces onto a new manifest generation: stop, republish the
  // fleet at version 2, restart on the SAME port. The router's first
  // exchange hits the dead connection, reconnects transparently, and the
  // reply's manifest version tells it the fleet moved.
  shard0->Stop();
  shard0.reset();
  const ShardedTrainResult v2 = TrainFleet(2, /*version=*/2);
  ASSERT_TRUE(SaveShardedSnapshots(v2.shards, CompactOptions{}, manifest).ok());
  ShardServer restarted(ShardServerOptions{.port = shard0_port});
  ASSERT_TRUE(restarted.StartFromManifest(manifest, 0).ok());
  EXPECT_EQ(restarted.port(), shard0_port);
  EXPECT_EQ(restarted.fleet_version(), 2u);

  const BatchResult after = router.RecommendMany(AsRefs(contexts), 5);
  EXPECT_TRUE(after.admission.ok());
  EXPECT_EQ(after.served, contexts.size());
  EXPECT_GE(router.stats().reconnects, 1u);
  EXPECT_EQ(router.observed_fleet_version(), 2u);
  EXPECT_GE(router.stats().version_changes, 1u);  // observed 1 -> 2

  // Same corpus, same options: generation 2 serves the same bits, so the
  // restarted fleet must still match the v1 reference exactly.
  const std::vector<Recommendation> expected =
      (*reference)->RecommendMany(AsRefs(contexts), 5).results;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after.statuses[i], StatusCode::kOk) << "item " << i;
    serve_test::ExpectSameRecommendation(expected[i], after.results[i]);
  }
  shard1.Stop();
}

TEST(NetServingTest, FailedStartLeavesTheServerStartable) {
  TempDir dir("failed_start");
  const std::string manifest = dir.file("fleet.manifest");
  const ShardedTrainResult trained = TrainFleet(1);
  ASSERT_TRUE(
      SaveShardedSnapshots(trained.shards, CompactOptions{}, manifest).ok());

  // Another listener holds the port: the start fails on bind.
  auto blocker = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(blocker.ok());
  const auto port = BoundPort(blocker->get());
  ASSERT_TRUE(port.ok());
  ShardServer server(ShardServerOptions{.port = *port});
  const Status first = server.StartFromManifest(manifest, 0);
  EXPECT_EQ(first.code(), StatusCode::kIOError) << first.ToString();

  // Once the port is free, the same server starts and serves.
  blocker->Reset();
  const Status retry = server.StartFromManifest(manifest, 0);
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(server.port(), *port);
  const auto contexts = FleetContexts(100);
  RouterClient router(1, TcpTransportFactory("127.0.0.1", {server.port()}));
  const BatchResult batch = router.RecommendMany(AsRefs(contexts), 5);
  EXPECT_TRUE(batch.admission.ok());
  EXPECT_EQ(batch.served, contexts.size());

  // A started server refuses a second start.
  EXPECT_EQ(server.StartFromManifest(manifest, 0).code(),
            StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST(NetServingTest, HostileTopNAnswersLikeNumEntriesWithoutAllocating) {
  // top_n travels as a u32. UINT32_MAX must be served exactly like
  // top_n = the model's entry count (no list can be longer) instead of
  // sizing ~51 GB of ranked-list scratch on the serving thread.
  const ShardedTrainResult trained = TrainFleet(1);
  const auto compact =
      CompactSnapshot::FromSnapshot(*trained.shards[0], CompactOptions{});
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  engine.Publish(compact);
  const net::ShardRequestHandler handler(&engine, /*fleet_version=*/1);

  const auto serve = [&](uint32_t top_n) {
    net::WireRequest request;
    request.request_id = top_n;
    request.top_n = top_n;
    request.contexts = FleetContexts(40);
    std::vector<uint8_t> frame;
    net::EncodeRequestFrame(request, &frame);
    std::vector<uint8_t> response_frame;
    SQP_CHECK_OK(handler.HandleRequest(
        std::span<const uint8_t>(frame).subspan(net::kFramePreludeBytes),
        &response_frame));
    net::WireResponse response;
    SQP_CHECK_OK(net::DecodeResponseBody(
        std::span<const uint8_t>(response_frame)
            .subspan(net::kFramePreludeBytes),
        &response));
    return response;
  };
  const uint32_t bound = static_cast<uint32_t>(compact->num_entries());
  const net::WireResponse hostile = serve(UINT32_MAX);
  const net::WireResponse bounded = serve(bound);
  EXPECT_EQ(hostile.admission, StatusCode::kOk);
  ASSERT_EQ(hostile.items.size(), bounded.items.size());
  size_t covered = 0;
  for (size_t i = 0; i < hostile.items.size(); ++i) {
    EXPECT_TRUE(hostile.items[i] == bounded.items[i]) << "item " << i;
    covered += hostile.items[i].covered ? 1 : 0;
  }
  EXPECT_GT(covered, 0u);
  EXPECT_LE(internal::ThreadScratch().topn_query.capacity(), bound);
}

}  // namespace
}  // namespace sqp::net_test
