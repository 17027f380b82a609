// interactive_tcp: a 2-shard ShardServer fleet cold-booted from a manifest
// on loopback TCP, one engine lane per server, feedback off. One generator
// thread holds one RouterClient and sends single-context requests on a
// Poisson schedule (open loop), timed from their due time, over a fixed
// rate ladder. The network dominates here (a round trip is ~100x a walk),
// so a net change should move these numbers and a walk, pool or training
// change should not.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/compact_snapshot.h"
#include "net/loopback_transport.h"
#include "net/request_handler.h"
#include "net/router_client.h"
#include "net/shard_server.h"
#include "net/tcp_transport.h"
#include "net/wire_format.h"
#include "open_loop.h"
#include "serve/sharded_engine.h"
#include "timing_transport.h"

namespace perfbench {

namespace {

using sqp::ContextRef;

constexpr uint32_t kShards = 2;
/// The fixed rate ladder (req/s) and the rung latency is reported at. One
/// synchronous client saturates near 1 / round trip (~45k req/s), so the
/// top rung always saturates it and throughput_items_s is measured there
/// (see README.md).
constexpr double kLadder[] = {5000, 10000, 20000, 100000};
constexpr double kNominalRate = 10000;
constexpr double kSaturatedRate = 100000;
constexpr size_t kRounds = 10;
/// goodput_rps limit on p90 latency from the due time.
constexpr double kP90LimitUs = 100.0;
/// Fleet boots between two rounds of the ladder: this many set-up boots
/// and as many retrain cycles, alternating.
constexpr size_t kBootsPerRound = 3;
constexpr size_t kFreshPerCycle = 200;
constexpr size_t kCaptures = 2000;
/// The generator and both event loops share this CPU, so every hand-off
/// is a same-CPU switch instead of a wake-up of another (virtual) CPU,
/// whichever CPUs the scheduler would have picked.
constexpr int kServingCpu = 1;
/// Set-up and retrain cycles train here, with no request in flight.
constexpr int kTrainingCpu = 2;

struct Fleet {
  std::vector<std::unique_ptr<sqp::net::ShardServer>> servers;
  std::vector<uint16_t> ports;
  std::string manifest;
  double setup_s = 0.0;
  double first_query_us = 0.0;  // StartFromManifest -> first TCP answer

  sqp::net::RouterClient::TransportFactory Tcp() const {
    return sqp::net::TcpTransportFactory("127.0.0.1", ports);
  }
  void Stop() {
    for (auto& server : servers) server->Stop();
  }
};

sqp::ShardedTrainOptions TrainOptions(size_t vocabulary, uint64_t version) {
  sqp::ShardedTrainOptions train;
  train.model = ModelOptions();
  train.num_shards = kShards;
  train.vocabulary_size = vocabulary;
  train.version = version;
  return train;
}

/// Set-up as a deployment runs it: train the sharded fleet, pack and save
/// the blobs and manifest, start one ShardServer per shard off the
/// manifest, and answer the first request over TCP. Training runs on
/// kTrainingCpu, the servers and the first request on kServingCpu, so
/// every boot uses the same CPUs.
Fleet BootFleet(const std::vector<sqp::AggregatedSession>& corpus,
                size_t vocabulary, uint64_t version,
                const std::string& manifest, ContextRef first) {
  Fleet fleet;
  fleet.manifest = manifest;
  PinThisThread(kTrainingCpu);
  const int64_t start = NowNs();
  auto trained =
      sqp::TrainShardedSnapshots(corpus, TrainOptions(vocabulary, version));
  SQP_CHECK(trained.ok());
  SQP_CHECK_OK(sqp::SaveShardedSnapshots(trained->shards,
                                         sqp::CompactOptions{}, manifest));
  PinThisThread(kServingCpu);  // the event loops inherit it
  const int64_t boot = NowNs();
  for (uint32_t s = 0; s < kShards; ++s) {
    auto server = std::make_unique<sqp::net::ShardServer>();
    SQP_CHECK_OK(server->StartFromManifest(manifest, s));
    fleet.ports.push_back(server->port());
    fleet.servers.push_back(std::move(server));
  }
  sqp::net::RouterClient router(kShards, fleet.Tcp());
  const sqp::ServeResult answer =
      router.Recommend(first, kTopN, sqp::ServeOptions{});
  SQP_CHECK(answer.status == sqp::StatusCode::kOk);
  SQP_CHECK(router.observed_fleet_version() == version);
  const int64_t end = NowNs();
  PinThisThread(-1);
  fleet.setup_s = (end - start) / 1e9;
  fleet.first_query_us = (end - boot) / 1e3;
  return fleet;
}

struct RungRun {
  std::vector<SentRequest> requests;
  std::vector<double> latency_us;
  size_t errors = 0;
};

RungRun RunRung(sqp::net::RouterClient* router,
                const std::vector<ContextRef>& refs, double rate,
                double seconds, uint64_t seed, size_t* cursor) {
  const std::vector<int64_t> offsets = PoissonSchedule(rate, seconds, seed);
  const size_t base = *cursor;
  RungRun run;
  run.requests = RunOpenLoop(offsets, NowNs() + 1'000'000, [&](size_t i) {
    const ContextRef context = refs[(base + i) % refs.size()];
    return router->Recommend(context, kTopN, sqp::ServeOptions{}).status ==
           sqp::StatusCode::kOk;
  });
  *cursor += offsets.size();
  for (const SentRequest& request : run.requests) {
    run.latency_us.push_back(request.latency_us());
    run.errors += !request.ok;
  }
  return run;
}

}  // namespace

int RunInteractiveTcp(const RunOptions& options, Report* report) {
  const Seeds seeds = DeriveSeeds(options.seed, 50000, 12500);
  Watchdog watchdog(160.0);
  watchdog.Stage("corpus synthesis");
  const sqp::bench::Harness harness(seeds.harness);
  const std::vector<TestPair> pairs = TestPairs(harness, seeds.order);
  std::vector<ContextRef> refs;
  for (const TestPair& pair : pairs) refs.emplace_back(pair.context);
  const size_t vocabulary = harness.training_data().vocabulary_size;
  report->Record("corpus_train_sessions", 50000.0);
  report->Record("corpus_test_sessions", 12500.0);
  report->Record("corpus_queries", static_cast<double>(vocabulary));
  report->Record("test_pairs", static_cast<double>(pairs.size()));

  watchdog.Stage("set-up");
  std::vector<double> setup_s;
  std::vector<double> first_query_us;
  Fleet fleet = BootFleet(harness.train(), vocabulary, 1,
                          options.work_dir + "/fleet.manifest", refs.front());
  setup_s.push_back(fleet.setup_s);
  first_query_us.push_back(fleet.first_query_us);
  uint64_t blob_bytes = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    blob_bytes += std::filesystem::file_size(fleet.manifest + ".shard" +
                                             std::to_string(s));
  }
  report->Record("blob_bytes", static_cast<double>(blob_bytes));

  // Gate: every TCP answer equals the in-process fleet's, bit for bit.
  watchdog.Stage("correctness gate");
  auto reference = sqp::ShardedEngine::BootFromManifest(
      fleet.manifest, sqp::ShardedEngineOptions{.num_threads = 1});
  SQP_CHECK(reference.ok());
  const sqp::ShardedEngine& local_fleet = **reference;
  sqp::net::RouterClient router(kShards, fleet.Tcp());
  uint64_t hits = 0;
  for (size_t i = 0; i < refs.size(); ++i) {
    const sqp::ServeResult tcp =
        router.Recommend(refs[i], kTopN, sqp::ServeOptions{});
    const sqp::ServeResult local =
        local_fleet.Recommend(refs[i], kTopN, sqp::ServeOptions{});
    if (tcp.status != sqp::StatusCode::kOk ||
        !SameAnswer(local.recommendation, tcp.recommendation)) {
      std::fprintf(stderr,
                   "FAIL: TCP answer diverges from the in-process sharded "
                   "engine at test pair %zu\n",
                   i);
      return 1;
    }
    if (SlotOf(tcp.recommendation, pairs[i].next) >= 0) ++hits;
  }
  std::printf("gate: %zu TCP answers bit-identical to the in-process fleet\n",
              refs.size());

  // Gate: each shard's mapped blob answers as the in-memory CompactSnapshot
  // packed from the same training run.
  auto trained =
      sqp::TrainShardedSnapshots(harness.train(), TrainOptions(vocabulary, 1));
  SQP_CHECK(trained.ok());
  for (uint32_t s = 0; s < kShards; ++s) {
    const auto packed = sqp::CompactSnapshot::FromSnapshot(*trained->shards[s]);
    const auto mapped = local_fleet.shard(s).CurrentSnapshot();
    sqp::SnapshotScratch packed_scratch;
    sqp::SnapshotScratch mapped_scratch;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (!SameAnswer(packed->Recommend(refs[i], kTopN, &packed_scratch),
                      mapped->Recommend(refs[i], kTopN, &mapped_scratch))) {
        std::fprintf(stderr,
                     "FAIL: shard %u's mapped blob diverges from the "
                     "in-memory CompactSnapshot at test pair %zu\n",
                     s, i);
        return 1;
      }
    }
  }
  std::printf("gate: %u mapped shard blobs answer as their in-memory "
              "CompactSnapshots on all %zu test pairs\n",
              kShards, refs.size());

  // More set-up samples: the same boot as the serving fleet's, on a fleet
  // that is stopped once it answered.
  const auto setup_boot = [&] {
    Fleet extra = BootFleet(harness.train(), vocabulary, 1,
                            options.work_dir + "/setup.manifest",
                            refs.front());
    setup_s.push_back(extra.setup_s);
    first_query_us.push_back(extra.first_query_us);
    extra.Stop();
  };
  // Freshness: a fleet has no incremental path, so a cycle retrains,
  // writes a new manifest and starts servers on it; it ends with the
  // first answer at the new fleet version. Every cycle retrains on the
  // bootstrap corpus plus its own fresh sessions, so the cycles are
  // equal-sized samples of one cost. Set-up boots and retrain cycles run
  // between the ladder's rounds, so slow phases of the host spread over
  // all three kinds of sample.
  std::vector<double> retrain_ms;
  const auto retrain_cycle = [&] {
    const size_t c = retrain_ms.size();
    std::vector<sqp::AggregatedSession> corpus = harness.train();
    const std::vector<sqp::AggregatedSession> fresh =
        FreshSessions(harness, c, kFreshPerCycle);
    corpus.insert(corpus.end(), fresh.begin(), fresh.end());
    const int64_t start = NowNs();
    Fleet next = BootFleet(corpus, vocabulary, c + 2,
                           options.work_dir + "/fleet" + std::to_string(c) +
                               ".manifest",
                           refs.front());
    retrain_ms.push_back((NowNs() - start) / 1e6);
    first_query_us.push_back(next.first_query_us);
    next.Stop();
  };

  size_t cursor = 0;
  // Only while requests cross the network (see IdleSpinners).
  std::optional<IdleSpinners> spinners(std::in_place);
  PinThisThread(kServingCpu);
  std::vector<Rung> rungs;
  RungRun nominal;  // every nominal-rate request, untraced
  std::vector<double> nominal_p50;
  std::vector<double> nominal_p90;
  std::vector<double> saturated_items_s;
  if (!options.trace) {
    // Rounds interleave the rungs, so a burst of host noise lands on one
    // window of every rung instead of on a whole rung; each rung reports
    // the median of its windows.
    watchdog.Stage("rate ladder");
    constexpr size_t kRungs = std::size(kLadder);
    // The saturated rung's requests take about twice their scheduled
    // window to send, so it is scheduled for half a window.
    const double window = options.seconds / (kRounds * kRungs);
    std::vector<std::vector<double>> p90(kRungs);
    std::vector<size_t> errors(kRungs, 0);
    std::vector<size_t> backlog_votes(kRungs, 0);
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t k = 0; k < kRungs; ++k) {
        RungRun run = RunRung(&router, refs, kLadder[k],
                              kLadder[k] == kSaturatedRate ? window / 2
                                                           : window,
                              seeds.arrivals + round * kRungs + k, &cursor);
        std::vector<double> delay;
        for (const SentRequest& request : run.requests) {
          delay.push_back(request.queue_delay_us());
        }
        p90[k].push_back(TailPercentile(run.latency_us, 90.0).value);
        errors[k] += run.errors;
        backlog_votes[k] += BacklogGrows(delay, kP90LimitUs);
        report->Count(run.requests.size(), run.errors);
        if (kLadder[k] == kSaturatedRate && !run.requests.empty()) {
          // The client never waits for a due time here, so this is the
          // completion rate the fleet sustains for one synchronous client.
          const double busy_s =
              (run.requests.back().done_ns - run.requests.front().due_ns) /
              1e9;
          saturated_items_s.push_back(
              (run.requests.size() - run.errors) / busy_s);
        }
        if (kLadder[k] != kNominalRate) continue;
        nominal_p50.push_back(Median(run.latency_us));
        nominal_p90.push_back(p90[k].back());
        nominal.errors += run.errors;
        nominal.requests.insert(nominal.requests.end(), run.requests.begin(),
                                run.requests.end());
      }
      // Training on the spinners' CPUs runs slower and less evenly.
      watchdog.Stage("retrain cycles");
      spinners.reset();
      for (size_t i = 0; i < kBootsPerRound; ++i) {
        setup_boot();
        retrain_cycle();
      }
      PinThisThread(kServingCpu);
      spinners.emplace();
      watchdog.Stage("rate ladder");
    }
    std::printf("nominal-rate window p50s (us):");
    for (const double p50 : nominal_p50) std::printf(" %.2f", p50);
    std::printf("\nsaturated-rung windows (items/s):");
    for (const double rate : saturated_items_s) std::printf(" %.0f", rate);
    std::printf("\n");
    for (size_t k = 0; k < kRungs; ++k) {
      rungs.push_back(Rung{.rate_rps = kLadder[k],
                           .p90_us = Median(p90[k]),
                           .errors = errors[k],
                           .backlog_grows = 2 * backlog_votes[k] > kRounds});
      std::printf("rung %6.0f req/s: median window p90 %.1f us, %zu errors, "
                  "backlog grew in %zu of %zu windows\n",
                  kLadder[k], rungs.back().p90_us, errors[k],
                  backlog_votes[k], kRounds);
    }
  } else {
    watchdog.Stage("nominal rate, untraced");
    nominal = RunRung(&router, refs, kNominalRate, options.seconds / 2,
                      seeds.arrivals, &cursor);
    report->Count(nominal.requests.size(), nominal.errors);
    spinners.reset();
    PinThisThread(-1);
    watchdog.Stage("retrain cycles");
    while (retrain_ms.size() < kRounds * kBootsPerRound) retrain_cycle();
  }
  spinners.reset();

  std::printf("retrain cycles (ms):");
  for (const double ms : retrain_ms) std::printf(" %.1f", ms);
  std::printf("\n");
  auto final_fleet = sqp::ShardedEngine::BootFromManifest(
      options.work_dir + "/fleet" + std::to_string(retrain_ms.size() - 1) +
      ".manifest");
  SQP_CHECK(final_fleet.ok());
  uint64_t model_bytes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    model_bytes +=
        static_cast<const sqp::ShardedEngine&>(**final_fleet)
            .shard(s)
            .CurrentSnapshot()->Stats().memory_bytes;
  }

  if (!options.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Record("latency_samples",
                   static_cast<double>(nominal.requests.size()));
    report->Metric("latency_p50_us", Median(nominal_p50), "us");
    report->Metric("latency_p90_us", Median(nominal_p90), "us");
    report->Metric("throughput_items_s", Median(saturated_items_s),
                   "items/s");
    report->Metric("goodput_rps", PickGoodput(rungs, kP90LimitUs), "req/s");
    report->Metric("retrain_cycle_ms", Median(retrain_ms), "ms");
    report->Metric("hit_rate_at5",
                   static_cast<double>(hits) / static_cast<double>(pairs.size()),
                   "ratio");
    report->Metric("model_mb", model_bytes / 1e6, "MB");
    fleet.Stop();
    return 0;
  }

  // ---- traced run: the nominal rate through a timing transport.
  watchdog.Stage("nominal rate, traced");
  spinners.emplace();
  PinThisThread(kServingCpu);
  ExchangeLog exchanges(kCaptures);
  sqp::net::RouterClient timed_router(
      kShards, TimingTransportFactory(fleet.Tcp(), &exchanges));
  struct CallTimes {
    int64_t call = 0;
    int64_t first_write = 0;
    int64_t last_read = 0;
    int64_t ret = 0;
  };
  const std::vector<int64_t> offsets =
      PoissonSchedule(kNominalRate, options.seconds / 2, seeds.arrivals + 1);
  std::vector<CallTimes> calls(offsets.size());
  const size_t base = cursor;
  const std::vector<SentRequest> traced = RunOpenLoop(
      offsets, NowNs() + 1'000'000, [&](size_t i) {
        CallTimes& times = calls[i];
        exchanges.Begin();
        times.call = NowNs();
        const sqp::ServeResult result = timed_router.Recommend(
            refs[(base + i) % refs.size()], kTopN, sqp::ServeOptions{});
        times.ret = NowNs();
        times.first_write = exchanges.first_write_ns();
        times.last_read = exchanges.last_read_ns();
        return result.status == sqp::StatusCode::kOk;
      });
  spinners.reset();
  PinThisThread(-1);
  SpanBuffer spans(size_t{1} << 22);
  std::vector<double> traced_latency;
  size_t traced_errors = 0;
  for (size_t i = 0; i < traced.size(); ++i) {
    const SentRequest& request = traced[i];
    const CallTimes& times = calls[i];
    traced_latency.push_back(request.latency_us());
    traced_errors += !request.ok;
    const int32_t root = spans.Add("bench.request", i, request.due_ns,
                                   request.done_ns, 1, -1);
    spans.Add("bench.queue", i, request.due_ns, request.send_ns, 1, root);
    const int32_t trip = spans.Add("net.router.roundtrip", i, times.call,
                                   times.ret, 1, root);
    if (times.first_write == 0 || times.last_read == 0) continue;
    spans.Add("net.client.encode", i, times.call, times.first_write, 1, trip);
    spans.Add("net.client.wait", i, times.first_write, times.last_read, 1,
              trip);
    spans.Add("net.client.decode", i, times.last_read, times.ret, 1, trip);
  }
  report->Count(traced.size(), traced_errors);

  // Replays of the captured frames through the layers the TCP path hides.
  watchdog.Stage("frame replays");
  const std::vector<CapturedExchange>& captures = exchanges.captures();
  std::vector<std::unique_ptr<sqp::net::ShardRequestHandler>> handlers;
  for (uint32_t s = 0; s < kShards; ++s) {
    handlers.push_back(std::make_unique<sqp::net::ShardRequestHandler>(
        &local_fleet.shard(s), /*fleet_version=*/1));
  }
  std::vector<uint8_t> response;
  size_t replayed = 0;
  for (int pass = 0; pass < 5; ++pass) {
    for (const CapturedExchange& capture : captures) {
      if (capture.request_frame.size() < sqp::net::kFramePreludeBytes ||
          capture.response_frame.size() < sqp::net::kFramePreludeBytes) {
        continue;
      }
      const std::span<const uint8_t> request_body(
          capture.request_frame.data() + sqp::net::kFramePreludeBytes,
          capture.request_frame.size() - sqp::net::kFramePreludeBytes);
      const std::span<const uint8_t> response_body(
          capture.response_frame.data() + sqp::net::kFramePreludeBytes,
          capture.response_frame.size() - sqp::net::kFramePreludeBytes);
      sqp::net::WireRequest wire_request;
      sqp::net::WireResponse wire_response;
      {
        ScopedSpan span(&spans, "net.wire.request_decode");
        SQP_CHECK_OK(sqp::net::DecodeRequestBody(request_body, &wire_request));
      }
      {
        ScopedSpan span(&spans, "net.wire.response_decode");
        SQP_CHECK_OK(
            sqp::net::DecodeResponseBody(response_body, &wire_response));
      }
      {
        ScopedSpan span(&spans, "net.handler.serve");
        SQP_CHECK_OK(
            handlers[capture.shard]->HandleRequest(request_body, &response));
      }
      ++replayed;
    }
  }
  report->Record("replayed_frames", static_cast<double>(replayed));

  watchdog.Stage("loopback and walk probes");
  std::vector<const sqp::RecommenderEngine*> shard_engines;
  for (uint32_t s = 0; s < kShards; ++s) {
    shard_engines.push_back(&local_fleet.shard(s));
  }
  sqp::net::RouterClient loopback(
      kShards, sqp::net::LoopbackTransportFactory(shard_engines, 1));
  const size_t probes = std::min<size_t>(refs.size(), 4096);
  for (size_t i = 0; i < probes; ++i) {
    ScopedSpan span(&spans, "net.loopback.roundtrip", i);
    SQP_CHECK(loopback.Recommend(refs[i], kTopN, sqp::ServeOptions{}).status ==
              sqp::StatusCode::kOk);
  }
  // The walk every server runs: shard 0's mapped model on the contexts
  // the router sends it.
  std::vector<ContextRef> shard0_refs;
  for (const ContextRef context : refs) {
    if (local_fleet.OwningShard(context) == 0) shard0_refs.push_back(context);
  }
  ProbeWalk(local_fleet.shard(0).CurrentSnapshot(), shard0_refs, 0.5, &spans,
            report);

  Trace trace;
  trace.Absorb(spans);
  const SpanSummaries summaries = trace.Summaries();
  LayerDuration(summaries, "net.router.roundtrip", "net.router.roundtrip_us",
                1e-3, "us", report, "net.router.roundtrip_p99_us");
  LayerDuration(summaries, "net.client.encode", "net.client.encode_us", 1e-3,
                "us", report);
  LayerDuration(summaries, "net.client.wait", "net.client.wait_us", 1e-3, "us",
                report);
  LayerDuration(summaries, "net.client.decode", "net.client.decode_us", 1e-3,
                "us", report);
  LayerDuration(summaries, "net.wire.request_decode",
                "net.wire.request_decode_ns", 1, "ns", report);
  LayerDuration(summaries, "net.wire.response_decode",
                "net.wire.response_decode_ns", 1, "ns", report);
  LayerDuration(summaries, "net.handler.serve", "net.handler.serve_us", 1e-3,
                "us", report);
  const double wait_us = Find(summaries, "net.client.wait").p50_ns * 1e-3;
  const double serve_us = Find(summaries, "net.handler.serve").p50_ns * 1e-3;
  report->Metric("net.socket_us", wait_us - serve_us, "us");
  std::printf("net.socket_us = net.client.wait_us %.3f - net.handler.serve_us "
              "%.3f\n",
              wait_us, serve_us);
  const double roundtrip_us =
      Find(summaries, "net.router.roundtrip").total_ns /
      std::max<size_t>(1, Find(summaries, "net.router.roundtrip").count) * 1e-3;
  double parts_us = 0.0;
  for (const char* part :
       {"net.client.encode", "net.client.wait", "net.client.decode"}) {
    const SpanSummary summary = Find(summaries, part);
    parts_us += summary.total_ns / std::max<size_t>(1, summary.count) * 1e-3;
  }
  std::printf("mean round trip %.3f us = encode + wait + decode %.3f us\n",
              roundtrip_us, parts_us);
  LayerDuration(summaries, "net.loopback.roundtrip",
                "net.loopback.roundtrip_us", 1e-3, "us", report);
  AddWalkMetrics(summaries, report);
  const sqp::net::RouterStats router_stats = timed_router.stats();
  uint64_t dropped = 0;
  for (const auto& server : fleet.servers) {
    dropped += server->stats().connections_dropped;
  }
  report->Metric("net.router.reconnects",
                 static_cast<double>(router_stats.reconnects +
                                     router.stats().reconnects),
                 "count");
  report->Metric("net.router.wire_errors",
                 static_cast<double>(router_stats.wire_errors +
                                     router.stats().wire_errors),
                 "count");
  report->Metric("net.server.connections_dropped",
                 static_cast<double>(dropped), "count");
  const std::vector<double> lag = GeneratorLagUs(nominal.requests);
  report->Metric("bench.generator_lag_p50_us", Median(lag), "us");
  report->Metric("bench.generator_lag_p99_us",
                 TailPercentile(lag, 99.0).value, "us");
  report->Metric("bench.latency_p99_us",
                 TailPercentile(nominal.latency_us, 99.0).value, "us");
  report->Metric("core.walk.first_query_us", Median(first_query_us), "us");

  watchdog.Stage("training layers");
  SpanBuffer layer_spans;
  TraceTrainingLayers(harness, options.work_dir, 3, &layer_spans);
  trace.Absorb(layer_spans);
  AddTrainingLayerMetrics(trace.Summaries(), blob_bytes, report);
  FinishTrace(trace, options, Median(nominal.latency_us),
              Median(traced_latency), report);
  fleet.Stop();
  return 0;
}

}  // namespace perfbench
