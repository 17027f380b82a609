#include "serve/cli_config.h"

#include <cstdlib>

#include "serve/explorer.h"

namespace sqp {
namespace {

Status ParseCount(const std::string& flag, const std::string& text,
                  size_t max_value, size_t* out) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 1 ||
      static_cast<unsigned long>(value) > max_value) {
    return Status::InvalidArgument(
        flag + " expects an integer in [1, " + std::to_string(max_value) +
        "], got '" + text + "'");
  }
  *out = static_cast<size_t>(value);
  return Status::OK();
}

}  // namespace

Result<RecommenderCliConfig> ParseRecommenderCliArgs(
    std::span<const std::string> args) {
  RecommenderCliConfig config;
  bool shards_given = false;
  bool batch_given = false;
  bool threads_given = false;
  bool deadline_given = false;
  bool lane_given = false;
  bool connect_given = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value_of = [&](const std::string& flag,
                              std::string* out) -> Status {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(flag + " expects a value");
      }
      *out = args[++i];
      return Status::OK();
    };
    std::string value;
    if (arg == "--tail") {
      config.tail = true;
    } else if (arg == "--compact") {
      config.compact = true;
    } else if (arg == "--threads") {
      SQP_RETURN_IF_ERROR(value_of(arg, &value));
      SQP_RETURN_IF_ERROR(ParseCount(arg, value, 64, &config.threads));
      threads_given = true;
    } else if (arg == "--batch") {
      SQP_RETURN_IF_ERROR(value_of(arg, &value));
      SQP_RETURN_IF_ERROR(ParseCount(arg, value, 1 << 16, &config.batch));
      batch_given = true;
    } else if (arg == "--shards") {
      SQP_RETURN_IF_ERROR(value_of(arg, &value));
      SQP_RETURN_IF_ERROR(ParseCount(arg, value, 4096, &config.shards));
      shards_given = true;
    } else if (arg == "--save-snapshot") {
      SQP_RETURN_IF_ERROR(value_of(arg, &config.save_snapshot));
      if (config.save_snapshot.empty()) {
        return Status::InvalidArgument("--save-snapshot expects a path");
      }
    } else if (arg == "--load-snapshot") {
      SQP_RETURN_IF_ERROR(value_of(arg, &config.load_snapshot));
      if (config.load_snapshot.empty()) {
        return Status::InvalidArgument("--load-snapshot expects a path");
      }
    } else if (arg == "--deadline-us") {
      SQP_RETURN_IF_ERROR(value_of(arg, &value));
      size_t deadline = 0;
      // Cap at 1e9 us (1000 s): anything longer is indistinguishable
      // from unbounded, which plain serving (deadline_us = 0) already is.
      SQP_RETURN_IF_ERROR(
          ParseCount(arg, value, 1000000000, &deadline));
      config.deadline_us = deadline;
      deadline_given = true;
    } else if (arg == "--serve-port") {
      SQP_RETURN_IF_ERROR(value_of(arg, &value));
      size_t port = 0;
      SQP_RETURN_IF_ERROR(ParseCount(arg, value, 65535, &port));
      config.serve_port = static_cast<uint16_t>(port);
    } else if (arg == "--connect") {
      SQP_RETURN_IF_ERROR(value_of(arg, &value));
      const size_t colon = value.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == value.size()) {
        return Status::InvalidArgument(
            "--connect expects HOST:PORT, got '" + value + "'");
      }
      size_t port = 0;
      SQP_RETURN_IF_ERROR(
          ParseCount(arg, value.substr(colon + 1), 65535, &port));
      config.connect_host = value.substr(0, colon);
      config.connect_port = static_cast<uint16_t>(port);
      connect_given = true;
    } else if (arg == "--feedback-log") {
      SQP_RETURN_IF_ERROR(value_of(arg, &config.feedback_log));
      if (config.feedback_log.empty()) {
        return Status::InvalidArgument("--feedback-log expects a directory");
      }
    } else if (arg == "--explore") {
      SQP_RETURN_IF_ERROR(value_of(arg, &config.explore));
      if (config.explore.empty()) {
        return Status::InvalidArgument(
            "--explore expects POLICY:PARAM (epsilon:E, softmax:L, bag:B) "
            "or none");
      }
    } else if (arg == "--lane") {
      SQP_RETURN_IF_ERROR(value_of(arg, &value));
      if (value == "interactive") {
        config.lane = QosLane::kInteractive;
      } else if (value == "bulk") {
        config.lane = QosLane::kBulk;
      } else {
        return Status::InvalidArgument(
            "--lane expects 'interactive' or 'bulk', got '" + value + "'");
      }
      lane_given = true;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }

  // A cold-booted replica serves a persisted artifact verbatim; flags
  // that only affect training would be silently ignored — reject them
  // loudly instead.
  if (!config.load_snapshot.empty()) {
    if (config.tail) {
      return Status::InvalidArgument(
          "--load-snapshot is incompatible with --tail: a cold-booted "
          "replica has no training corpus to retrain");
    }
    if (!config.save_snapshot.empty()) {
      return Status::InvalidArgument(
          "--load-snapshot is incompatible with --save-snapshot: a "
          "cold-booted replica never rebuilds, so there is nothing new to "
          "persist");
    }
    if (config.compact) {
      return Status::InvalidArgument(
          "--compact is ignored with --load-snapshot: a persisted blob "
          "already is the compact serving layout");
    }
    if (shards_given) {
      return Status::InvalidArgument(
          "--shards is ignored with --load-snapshot: the shard count "
          "comes from the snapshot manifest");
    }
  }

  // The network tier: both modes resolve the fleet shape and the
  // dictionary off a persisted manifest, so they require --load-snapshot;
  // flags the chosen mode would silently ignore are rejected loudly.
  if (config.serve_port != 0 && connect_given) {
    return Status::InvalidArgument(
        "--serve-port and --connect are mutually exclusive: a process is "
        "either a shard server or a routing client");
  }
  if (config.serve_port != 0) {
    if (config.load_snapshot.empty()) {
      return Status::InvalidArgument(
          "--serve-port requires --load-snapshot: a shard server "
          "cold-boots the fleet manifest it serves");
    }
    if (batch_given || deadline_given || lane_given) {
      return Status::InvalidArgument(
          std::string(batch_given ? "--batch"
                      : deadline_given ? "--deadline-us"
                                       : "--lane") +
          " is ignored with --serve-port: a shard server has no stdin "
          "loop; batching and QoS travel per-request from the connecting "
          "router");
    }
  }
  // Closed-loop serving flags: exploration without a feedback log would
  // perturb traffic while throwing away the propensities that make the
  // perturbed log evaluatable; a routing client never serves, so it has
  // nothing truthful to log.
  if (!config.explore.empty() && config.feedback_log.empty()) {
    return Status::InvalidArgument(
        "--explore requires --feedback-log: exploration must log sampling "
        "propensities or the perturbed traffic cannot be evaluated");
  }
  if (!config.explore.empty()) {
    // Reject malformed specs at parse time, not at first served request.
    const Result<ExplorerOptions> parsed = ParseExplorerSpec(config.explore);
    if (!parsed.ok()) return parsed.status();
  }
  if (connect_given && !config.feedback_log.empty()) {
    return Status::InvalidArgument(
        "--feedback-log is ignored with --connect: feedback is logged by "
        "the serving process (start the fleet's --serve-port side with it)");
  }

  if (connect_given) {
    if (config.load_snapshot.empty()) {
      return Status::InvalidArgument(
          "--connect requires --load-snapshot: the client resolves the "
          "shard count and the dictionary off the fleet manifest");
    }
    if (threads_given) {
      return Status::InvalidArgument(
          "--threads is ignored with --connect: the router is a "
          "single-connection client; engine lanes belong to the serving "
          "side");
    }
  }
  return config;
}

}  // namespace sqp
