// Argument-validation contract of recommender_cli (serve/cli_config): a
// flag that would be silently ignored is an explicit error naming the
// flag, never a silent default.

#include "serve/cli_config.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sqp {
namespace {

Result<RecommenderCliConfig> Parse(std::vector<std::string> args) {
  return ParseRecommenderCliArgs(args);
}

TEST(CliConfigTest, DefaultsAndBasicFlags) {
  const auto config = Parse({});
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->threads, 1u);
  EXPECT_EQ(config->batch, 1u);
  EXPECT_EQ(config->shards, 1u);
  EXPECT_FALSE(config->tail);

  const auto parsed = Parse({"--threads", "8", "--batch", "64", "--shards",
                             "4", "--tail"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->threads, 8u);
  EXPECT_EQ(parsed->batch, 64u);
  EXPECT_EQ(parsed->shards, 4u);
  EXPECT_TRUE(parsed->tail);
}

TEST(CliConfigTest, LaterFlagsOverrideEarlierOnes) {
  const auto parsed = Parse({"--threads", "2", "--threads", "6"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->threads, 6u);
}

TEST(CliConfigTest, UnknownFlagsAndBadCountsAreNamedInTheError) {
  auto bad = Parse({"--frobnicate"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--frobnicate"), std::string::npos);

  // The CLI always serves the packed blob; there is no --compact switch.
  bad = Parse({"--compact"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--compact"), std::string::npos);

  bad = Parse({"--threads"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--threads"), std::string::npos);

  for (const std::string value : {"0", "-3", "65", "abc", "4x"}) {
    bad = Parse({"--threads", value});
    ASSERT_FALSE(bad.ok()) << value;
    EXPECT_NE(bad.status().message().find("--threads"), std::string::npos);
    EXPECT_NE(bad.status().message().find(value), std::string::npos);
  }
  EXPECT_FALSE(Parse({"--shards", "4097"}).ok());
  EXPECT_FALSE(Parse({"--batch", "65537"}).ok());
}

TEST(CliConfigTest, LoadSnapshotRejectsIgnoredFlags) {
  // Each invalid combination must produce an error that names the
  // conflicting flag — the "clear error, not a silent default" contract.
  const struct {
    std::vector<std::string> args;
    std::string must_mention;
  } cases[] = {
      {{"--load-snapshot", "x.blob", "--tail"}, "--tail"},
      {{"--load-snapshot", "x.blob", "--save-snapshot", "y.blob"},
       "--save-snapshot"},
      {{"--load-snapshot", "x.manifest", "--shards", "2"}, "--shards"},
  };
  for (const auto& test : cases) {
    const auto parsed = Parse(test.args);
    ASSERT_FALSE(parsed.ok()) << test.must_mention;
    EXPECT_NE(parsed.status().message().find(test.must_mention),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(CliConfigTest, DeadlineAndLaneFlags) {
  // Defaults: unbounded budget, interactive lane.
  const auto defaults = Parse({});
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->deadline_us, 0u);
  EXPECT_EQ(defaults->lane, QosLane::kInteractive);

  const auto parsed =
      Parse({"--deadline-us", "2500", "--lane", "bulk"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->deadline_us, 2500u);
  EXPECT_EQ(parsed->lane, QosLane::kBulk);

  EXPECT_EQ(Parse({"--lane", "interactive"})->lane, QosLane::kInteractive);

  for (const std::string value : {"0", "-5", "soon", "1000000001"}) {
    const auto bad = Parse({"--deadline-us", value});
    ASSERT_FALSE(bad.ok()) << value;
    EXPECT_NE(bad.status().message().find("--deadline-us"),
              std::string::npos);
  }
  const auto bad_lane = Parse({"--lane", "express"});
  ASSERT_FALSE(bad_lane.ok());
  EXPECT_NE(bad_lane.status().message().find("--lane"), std::string::npos);
  EXPECT_NE(bad_lane.status().message().find("express"), std::string::npos);
}

TEST(CliConfigTest, LoadSnapshotWithServingFlagsIsFine) {
  // --threads and --batch configure serving, which a cold-booted replica
  // still does; they must not be rejected.
  const auto parsed = Parse(
      {"--load-snapshot", "x.manifest", "--threads", "4", "--batch", "32"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->load_snapshot, "x.manifest");
  EXPECT_EQ(parsed->threads, 4u);
}

TEST(CliConfigTest, ServePortParsesAndRequiresLoadSnapshot) {
  const auto parsed =
      Parse({"--load-snapshot", "fleet.manifest", "--serve-port", "7400",
             "--threads", "2"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->serve_port, 7400u);
  EXPECT_EQ(parsed->threads, 2u);

  const auto bare = Parse({"--serve-port", "7400"});
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.status().message().find("--serve-port"), std::string::npos);
  EXPECT_NE(bare.status().message().find("--load-snapshot"),
            std::string::npos);

  EXPECT_FALSE(Parse({"--serve-port", "0"}).ok());
  EXPECT_FALSE(Parse({"--serve-port", "65536"}).ok());
}

TEST(CliConfigTest, ConnectParsesHostPortAndRequiresLoadSnapshot) {
  const auto parsed = Parse(
      {"--load-snapshot", "fleet.manifest", "--connect", "10.0.0.7:7400"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->connect_host, "10.0.0.7");
  EXPECT_EQ(parsed->connect_port, 7400u);

  const auto bare = Parse({"--connect", "localhost:7400"});
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.status().message().find("--connect"), std::string::npos);

  for (const std::string value : {"nohost", ":7400", "host:", "host:0",
                                  "host:65536", "host:abc"}) {
    const auto bad = Parse({"--load-snapshot", "m", "--connect", value});
    ASSERT_FALSE(bad.ok()) << value;
    EXPECT_NE(bad.status().message().find("--connect"), std::string::npos);
  }
}

TEST(CliConfigTest, ServeAndConnectModesRejectIgnoredFlags) {
  const auto both = Parse({"--load-snapshot", "m", "--serve-port", "7400",
                           "--connect", "host:7400"});
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.status().message().find("mutually exclusive"),
            std::string::npos);

  // A shard server has no stdin loop: client-side batching/QoS flags
  // would be silently ignored.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--batch", "8"},
        std::vector<std::string>{"--deadline-us", "100"},
        std::vector<std::string>{"--lane", "bulk"}}) {
    std::vector<std::string> args = {"--load-snapshot", "m", "--serve-port",
                                     "7400"};
    args.insert(args.end(), extra.begin(), extra.end());
    const auto bad = Parse(args);
    ASSERT_FALSE(bad.ok()) << extra[0];
    EXPECT_NE(bad.status().message().find(extra[0]), std::string::npos)
        << bad.status().message();
  }

  // The router client has no engine lanes.
  const auto threads = Parse({"--load-snapshot", "m", "--connect",
                              "host:7400", "--threads", "4"});
  ASSERT_FALSE(threads.ok());
  EXPECT_NE(threads.status().message().find("--threads"), std::string::npos);

  // Client-side QoS flags DO apply in connect mode.
  const auto ok = Parse({"--load-snapshot", "m", "--connect", "host:7400",
                         "--batch", "16", "--deadline-us", "5000", "--lane",
                         "bulk"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(CliConfigTest, ClosedLoopFlagsParseAndValidate) {
  const auto parsed =
      Parse({"--feedback-log", "/tmp/fb", "--explore", "epsilon:0.1"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->feedback_log, "/tmp/fb");
  EXPECT_EQ(parsed->explore, "epsilon:0.1");

  // A feedback log without exploration is fine (greedy logging).
  const auto log_only = Parse({"--feedback-log", "/tmp/fb"});
  ASSERT_TRUE(log_only.ok());
  EXPECT_TRUE(log_only->explore.empty());

  // Missing values are named errors.
  auto bad = Parse({"--feedback-log"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--feedback-log"),
            std::string::npos);
  bad = Parse({"--explore"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--explore"), std::string::npos);
}

TEST(CliConfigTest, ExploreWithoutFeedbackLogIsRejected) {
  // Exploring without logging propensities would perturb traffic while
  // making it unevaluatable.
  const auto bad = Parse({"--explore", "epsilon:0.1"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--explore"), std::string::npos);
  EXPECT_NE(bad.status().message().find("--feedback-log"),
            std::string::npos);
}

TEST(CliConfigTest, MalformedExploreSpecsFailAtParseTimeNotServeTime) {
  for (const std::string spec : {"thompson:1", "epsilon:nope",
                                 "epsilon:1.5", "bag:0"}) {
    const auto bad = Parse({"--feedback-log", "/tmp/fb", "--explore", spec});
    ASSERT_FALSE(bad.ok()) << spec;
  }
  // Every valid policy spelling passes.
  for (const std::string spec :
       {"none", "epsilon:0", "epsilon:1", "softmax:8", "bag:4"}) {
    const auto ok = Parse({"--feedback-log", "/tmp/fb", "--explore", spec});
    ASSERT_TRUE(ok.ok()) << spec << ": " << ok.status().ToString();
  }
}

TEST(CliConfigTest, ConnectModeRejectsFeedbackFlags) {
  // A routing client never serves, so it has nothing truthful to log;
  // feedback belongs to the --serve-port side.
  const auto bad = Parse({"--load-snapshot", "m", "--connect", "host:7400",
                          "--feedback-log", "/tmp/fb"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--feedback-log"),
            std::string::npos);

  // But a serving fleet CAN log feedback.
  const auto ok = Parse({"--load-snapshot", "m", "--serve-port", "7400",
                         "--feedback-log", "/tmp/fb", "--explore",
                         "softmax:4"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace sqp
