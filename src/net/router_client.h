#ifndef SQP_NET_ROUTER_CLIENT_H_
#define SQP_NET_ROUTER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/transport.h"
#include "net/wire_format.h"
#include "serve/deadline.h"
#include "serve/recommender_engine.h"
#include "util/status.h"

namespace sqp::net {

struct RouterOptions {
  /// Attempts per shard sub-batch. Attempt 2+ asks the factory for a
  /// fresh transport — the graceful-restart path: a shard bouncing onto a
  /// new manifest answers the retry, and the response's fleet version
  /// tells the router the fleet moved. Only connection-level failures
  /// (kUnavailable) retry; a protocol violation (kDataLoss) surfaces
  /// immediately, because resending bytes cannot fix a corrupt stream.
  int max_attempts = 2;

  /// When nonzero, every request pins this manifest version and a shard
  /// serving a different one answers kFailedPrecondition (see
  /// ShardRequestHandler). 0 = serve whatever is published.
  uint64_t expected_fleet_version = 0;
};

struct RouterStats {
  uint64_t batches = 0;           // RecommendMany calls
  uint64_t subrequests = 0;       // per-shard request frames sent
  uint64_t reconnects = 0;        // fresh transports after a failure
  uint64_t wire_errors = 0;       // sub-batches failed with kDataLoss
  uint64_t unavailable = 0;       // sub-batches failed with kUnavailable
  uint64_t version_changes = 0;   // observed fleet version moved
};

/// The client half of the network tier: speaks the wire protocol to N
/// shard servers (one Transport per shard, TCP or loopback — the router
/// cannot tell) and presents the same deadline-aware RecommendMany
/// surface as ShardedEngine. Contexts are routed by ShardOfContext,
/// bundled into one request frame per shard, and the replies are merged
/// back in submission order — bit-identical to in-process sharded
/// serving, because each shard's embedded engine answers its contexts
/// with the unsharded model's exact scores.
///
/// Deadlines travel as remaining-microsecond budgets captured at send
/// time, so server-side queue wait burns the same budget it would have
/// in-process. A sub-batch whose shard cannot be reached (after
/// max_attempts) marks exactly its own items kUnavailable/kDataLoss;
/// other shards' answers are unaffected — the same isolation a dead
/// shard has in ShardedEngine.
///
/// Not thread-safe: one RouterClient per client thread (connections are
/// serial request/response streams). The bench opens one per connection.
class RouterClient {
 public:
  /// Produces a connection to shard `s`. Called lazily on first use and
  /// again after a connection-level failure (reconnect).
  using TransportFactory =
      std::function<Result<std::unique_ptr<Transport>>(uint32_t shard)>;

  RouterClient(uint32_t num_shards, TransportFactory factory,
               RouterOptions options = {});

  /// Deadline-aware batched serving over the fleet; mirrors
  /// ShardedEngine::RecommendMany (positional results, per-item statuses,
  /// BatchResult::served_version = 0).
  BatchResult RecommendMany(std::span<const ContextRef> contexts,
                            size_t top_n, const ServeOptions& options = {});

  /// Single-query convenience (a one-item batch on the wire).
  ServeResult Recommend(ContextRef context, size_t top_n,
                        const ServeOptions& options = {});

  uint32_t num_shards() const { return num_shards_; }

  /// Highest manifest version any response has reported — how the router
  /// observes a shard restarting onto a newer snapshot generation.
  uint64_t observed_fleet_version() const { return observed_fleet_version_; }

  RouterStats stats() const { return stats_; }

 private:
  /// One request/response exchange with `shard`, reconnecting per
  /// RouterOptions. The returned status code is what the sub-batch's
  /// items are marked with on failure.
  Result<WireResponse> Exchange(uint32_t shard,
                                std::span<const uint8_t> frame);

  uint32_t num_shards_;
  TransportFactory factory_;
  RouterOptions options_;
  std::vector<std::unique_ptr<Transport>> transports_;
  uint64_t next_request_id_ = 1;
  uint64_t observed_fleet_version_ = 0;
  RouterStats stats_;
};

}  // namespace sqp::net

#endif  // SQP_NET_ROUTER_CLIENT_H_
