#ifndef SQP_NET_SHARD_SERVER_H_
#define SQP_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/request_handler.h"
#include "serve/recommender_engine.h"
#include "util/socket.h"
#include "util/status.h"

namespace sqp::net {

struct ShardServerOptions {
  /// Address to bind. Port 0 binds an ephemeral port — read the real one
  /// back with port() after Start (the pattern every test and the bench
  /// use to avoid port collisions).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// The embedded engine built by StartFromManifest. One worker lane by
  /// default: a shard process is already one slice of the fleet, and the
  /// admission queue still applies its deadline/lane policy to pool-sized
  /// batches when more lanes are configured.
  EngineOptions engine = {.num_threads = 1};

  /// Optional closed-loop hook (serve/feedback.h): every request this
  /// server serves is passed through it (exploration rerank + impression
  /// logging). Must outlive the server. Null = serve exactly as before.
  const FeedbackHook* feedback = nullptr;
};

struct ShardServerStats {
  uint64_t connections_accepted = 0;
  /// Connections closed because the peer sent a poisoned stream (bad
  /// magic/version/oversized length/CRC mismatch/malformed body).
  uint64_t connections_dropped = 0;
  uint64_t frames_served = 0;
};

/// One shard of the fleet as a network service: cold-boots its snapshot
/// blob off the shared SnapshotManifest and serves request frames over
/// TCP from a nonblocking epoll event loop on a background thread.
/// Requests are decoded, served through the embedded RecommenderEngine
/// (deadline budgets from the frame header re-anchored into absolute
/// deadlines, lanes mapped onto the admission queue) and answered on the
/// same connection; responses to pipelined requests come back in request
/// order. A connection that sends garbage is closed — the router sees
/// kUnavailable and reconnects; other connections are unaffected.
class ShardServer {
 public:
  explicit ShardServer(ShardServerOptions options = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Cold-boots shard `shard_index` of the fleet pinned by
  /// `manifest_path` into the server's own engine (SnapshotIo::MapShard,
  /// the per-shard step of ShardedEngine::BootFromManifest) and starts
  /// accepting connections. The manifest's model version becomes the
  /// fleet version echoed in every response. A start that fails (bad
  /// artifact, port in use) leaves the server as it was, so it can be
  /// retried; a started server refuses a second start.
  Status StartFromManifest(const std::string& manifest_path,
                           uint32_t shard_index);

  /// Stops accepting, closes every connection and joins the event loop.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// The port actually bound (resolves an ephemeral request).
  uint16_t port() const { return port_; }
  uint32_t shard_index() const { return shard_index_; }
  uint64_t fleet_version() const { return fleet_version_; }
  /// Shard count of the manifest served (1 before a start).
  uint32_t fleet_num_shards() const { return fleet_num_shards_; }
  ShardServerStats stats() const;

 private:
  void EventLoop();

  ShardServerOptions options_;
  std::unique_ptr<RecommenderEngine> owned_engine_;
  std::unique_ptr<ShardRequestHandler> handler_;
  uint64_t fleet_version_ = 0;
  uint32_t shard_index_ = 0;
  uint32_t fleet_num_shards_ = 1;
  uint16_t port_ = 0;

  OwnedFd listener_;
  OwnedFd wake_;
  std::thread loop_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_dropped_{0};
  std::atomic<uint64_t> frames_served_{0};
};

}  // namespace sqp::net

#endif  // SQP_NET_SHARD_SERVER_H_
