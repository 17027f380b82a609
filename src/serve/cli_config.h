#ifndef SQP_SERVE_CLI_CONFIG_H_
#define SQP_SERVE_CLI_CONFIG_H_

/// Argument parsing and validation for examples/recommender_cli, factored
/// into the library so the rules are unit-testable
/// (tests/serve/cli_config_test.cc). The validation contract: a flag that
/// would be silently ignored is an InvalidArgument error naming the flag
/// and why — never a silent default.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "serve/deadline.h"
#include "util/status.h"

namespace sqp {

struct RecommenderCliConfig {
  size_t threads = 1;  // engine worker lanes, [1, 64]
  size_t batch = 1;    // contexts buffered per RecommendMany, [1, 65536]
  size_t shards = 1;   // engine shards, [1, 4096]
  bool tail = false;
  bool compact = false;
  /// Both name a fleet manifest: --save-snapshot writes it (shard blobs at
  /// PATH.shard<k>, dictionary at PATH.dict), --load-snapshot boots from
  /// it, in-process or behind --serve-port/--connect.
  std::string save_snapshot;
  std::string load_snapshot;

  /// Per-request latency budget in microseconds; 0 = unbounded (never
  /// shed, never degraded).
  uint64_t deadline_us = 0;

  /// Admission priority lane for served requests.
  QosLane lane = QosLane::kInteractive;

  /// Network serving mode: expose the cold-booted fleet over TCP (one
  /// ShardServer per shard on ports serve_port..serve_port+N-1) instead
  /// of answering stdin. 0 = off.
  uint16_t serve_port = 0;

  /// Network client mode: "host:baseport" of a fleet started with
  /// --serve-port; the stdin loop is served through a RouterClient over
  /// TCP instead of an in-process engine. Empty = off.
  std::string connect_host;
  uint16_t connect_port = 0;

  /// Closed-loop serving: directory for the append-only feedback log
  /// (serve/feedback.h). Every served answer is logged as an impression;
  /// with --tail, session ends fold clicked impressions back into the
  /// retrainer (ConsumeFeedback). Empty = no feedback logging.
  std::string feedback_log;

  /// Exploration policy spec "POLICY:PARAM" (serve/explorer.h):
  /// "epsilon:0.1", "softmax:8", "bag:4", or "none". Requires
  /// --feedback-log (exploring without logging propensities would make
  /// the traffic unevaluatable). Empty = greedy serving, bit-identical
  /// to a build without the explorer.
  std::string explore;
};

/// Parses recommender_cli arguments (argv[1..], program name excluded).
/// Later occurrences of a flag override earlier ones; validation then
/// rejects combinations where a flag would be ignored:
///  - --load-snapshot with --tail or --save-snapshot (a cold-booted
///    replica has no training corpus to retrain or persist),
///  - --load-snapshot with --compact (a persisted fleet's shard blobs
///    already are the compact layout; the flag would change nothing),
///  - --load-snapshot with --shards (the shard count comes from the
///    manifest, not the command line),
///  - --serve-port and --connect each require --load-snapshot (both sides
///    of the network tier resolve the fleet shape and the dictionary off
///    the persisted manifest) and are mutually exclusive,
///  - --serve-port with --batch/--deadline-us/--lane (a shard server has
///    no stdin loop; QoS travels per-request from the connecting router),
///  - --connect with --threads (the router is a single-connection client;
///    engine lanes belong to the serving side),
///  - --explore without --feedback-log (exploration must log propensities
///    or the perturbed traffic cannot be evaluated),
///  - --connect with --feedback-log/--explore (feedback is a server-side
///    concern: the serving process owns the log; a router would log
///    answers it did not serve).
/// Every error message names the offending flag and the reason.
Result<RecommenderCliConfig> ParseRecommenderCliArgs(
    std::span<const std::string> args);

}  // namespace sqp

#endif  // SQP_SERVE_CLI_CONFIG_H_
