// Network-tier bench: QPS and round-trip latency of the wire-protocol
// serving path (net/shard_server + net/router_client) against the same
// fleet served in-process, as the number of client connections grows.
// Every run first re-verifies the tier's core claim — the networked
// answers are bit-identical to in-process sharded serving, over loopback
// AND real TCP — and exits non-zero on any mismatch. Emits
// BENCH_net.json (see bench/README.md).
//
// On a 1-core container the connection-scaling rows measure protocol +
// epoll overhead, not parallel speedup; hardware_threads is recorded so
// cross-PR comparisons can normalize.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/loopback_transport.h"
#include "net/router_client.h"
#include "net/shard_server.h"
#include "net/tcp_transport.h"
#include "serve/sharded_engine.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

constexpr size_t kShards = 2;
constexpr size_t kBatch = 256;
constexpr double kWindowSeconds = 0.8;

struct Measurement {
  std::string transport;
  size_t connections = 0;
  double qps = 0.0;       // items served per second, all connections
  double p50_us = 0.0;    // round-trip micros per 256-item batch
  double p99_us = 0.0;
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t at = std::min(
      sorted_in_place->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_in_place->size())));
  return (*sorted_in_place)[at];
}

std::vector<std::vector<QueryId>> Contexts(const Harness& harness) {
  std::vector<std::vector<QueryId>> out;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) out.push_back(entry.context);
    if (out.size() >= 4096) break;
  }
  return out;
}

bool SameRecommendation(const Recommendation& a, const Recommendation& b) {
  if (a.covered != b.covered || a.matched_length != b.matched_length ||
      a.queries.size() != b.queries.size()) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].query != b.queries[i].query ||
        a.queries[i].score != b.queries[i].score) {
      return false;
    }
  }
  return true;
}

/// True when the router answers every context exactly as the in-process
/// fleet does (all items kOk, every recommendation bit-identical).
bool RouterMatchesReference(net::RouterClient* router,
                            const ShardedEngine& reference,
                            const std::vector<std::vector<QueryId>>& contexts) {
  const std::vector<ContextRef> refs = AsRefs(contexts);
  for (size_t start = 0; start < refs.size(); start += kBatch) {
    const std::span<const ContextRef> slice =
        std::span<const ContextRef>(refs).subspan(
            start, std::min(kBatch, refs.size() - start));
    const BatchResult batch = router->RecommendMany(slice, 5);
    const std::vector<Recommendation> expected =
        reference.RecommendMany(slice, 5).results;
    if (batch.results.size() != expected.size()) return false;
    for (size_t i = 0; i < expected.size(); ++i) {
      if (batch.statuses[i] != StatusCode::kOk) return false;
      if (!SameRecommendation(expected[i], batch.results[i])) return false;
    }
  }
  return true;
}

/// One serving window: `connections` clients (one thread + one
/// RouterClient each) pump 256-context batches as fast as the fleet
/// answers. Returns total items/s and per-batch round-trip percentiles.
Measurement Pump(const std::string& transport, size_t connections,
                 const std::function<net::RouterClient::TransportFactory()>&
                     make_factory,
                 const std::vector<std::vector<QueryId>>& contexts) {
  std::vector<uint64_t> served(connections, 0);
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      net::RouterClient router(kShards, make_factory());
      std::vector<ContextRef> refs;
      size_t cursor = c * 37;  // stagger the request mixes
      WallTimer window;
      while (window.ElapsedSeconds() < kWindowSeconds) {
        refs.clear();
        for (size_t i = 0; i < kBatch; ++i) {
          const std::vector<QueryId>& context =
              contexts[cursor % contexts.size()];
          refs.emplace_back(context.data(), context.size());
          ++cursor;
        }
        WallTimer timer;
        const BatchResult batch =
            router.RecommendMany(std::span<const ContextRef>(refs), 5);
        latencies[c].push_back(timer.ElapsedSeconds() * 1e6);
        served[c] += batch.served;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  Measurement m;
  m.transport = transport;
  m.connections = connections;
  uint64_t total = 0;
  std::vector<double> merged;
  for (size_t c = 0; c < connections; ++c) {
    total += served[c];
    merged.insert(merged.end(), latencies[c].begin(), latencies[c].end());
  }
  m.qps = static_cast<double>(total) / kWindowSeconds;
  m.p50_us = Percentile(&merged, 0.50);
  m.p99_us = Percentile(&merged, 0.99);
  return m;
}

void WriteJson(bool equivalent, const std::vector<Measurement>& measurements,
               size_t hardware_threads) {
  std::FILE* out = std::fopen("BENCH_net.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_net.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  std::fprintf(out,
               "  {\"name\": \"net_equivalence\", \"shards\": %zu, "
               "\"equal\": %d},\n",
               kShards, equivalent ? 1 : 0);
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(
        out,
        "  {\"name\": \"net_serving\", \"transport\": \"%s\", "
        "\"connections\": %zu, \"shards\": %zu, \"batch\": %zu, "
        "\"qps\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
        "\"hardware_threads\": %zu}%s\n",
        m.transport.c_str(), m.connections, kShards, kBatch, m.qps, m.p50_us,
        m.p99_us, hardware_threads, i + 1 == measurements.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_net.json\n");
}

}  // namespace

int main() {
  // A wedged socket must fail the bench run, never hang the CI job.
  ::alarm(180);

  Harness harness;
  sqp::bench::PrintBanner(
      harness, "network serving tier (QPS / p99 vs client connections)",
      "the TCP fleet serves bit-identical answers to in-process sharded "
      "serving; throughput is protocol + event-loop overhead on top of "
      "the same engine walk");

  const size_t hardware =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::printf("hardware threads: %zu\n\n", hardware);

  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;
  ShardedTrainOptions train;
  train.model = options;
  train.num_shards = kShards;
  train.vocabulary_size = harness.training_data().vocabulary_size;
  auto trained = TrainShardedSnapshots(harness.train(), train);
  SQP_CHECK(trained.ok());

  ShardedEngine reference(
      ShardedEngineOptions{.num_shards = kShards, .num_threads = 1});
  std::vector<std::unique_ptr<RecommenderEngine>> loopback_engines;
  std::vector<const RecommenderEngine*> loopback_borrowed;
  for (size_t s = 0; s < kShards; ++s) {
    reference.shard(s)->Publish(trained->shards[s]);
    loopback_engines.push_back(std::make_unique<RecommenderEngine>(
        EngineOptions{.num_threads = 1}));
    loopback_engines.back()->Publish(trained->shards[s]);
    loopback_borrowed.push_back(loopback_engines.back().get());
  }

  // The TCP fleet cold-boots off a manifest, exactly like production.
  const std::string manifest =
      (std::filesystem::temp_directory_path() /
       ("sqp_bench_net_" + std::to_string(::getpid()) + ".manifest"))
          .string();
  SQP_CHECK_OK(
      SaveShardedSnapshots(trained->shards, CompactOptions{}, manifest));
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<uint16_t> ports;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto server = std::make_unique<net::ShardServer>();
    SQP_CHECK_OK(server->StartFromManifest(manifest, s));
    ports.push_back(server->port());
    servers.push_back(std::move(server));
  }

  const std::vector<std::vector<QueryId>> contexts = Contexts(harness);
  SQP_CHECK(!contexts.empty());

  const auto tcp_factory = [&] {
    return net::TcpTransportFactory("127.0.0.1", ports);
  };
  const auto loopback_factory = [&] {
    return net::LoopbackTransportFactory(loopback_borrowed,
                                         /*fleet_version=*/1);
  };

  // Equivalence first — the claim every throughput number rests on.
  bool equivalent = true;
  {
    net::RouterClient tcp(kShards, tcp_factory());
    net::RouterClient loopback(kShards, loopback_factory());
    equivalent = RouterMatchesReference(&loopback, reference, contexts) &&
                 RouterMatchesReference(&tcp, reference, contexts);
    std::printf("equivalence (loopback + tcp vs in-process): %s\n\n",
                equivalent ? "bit-identical" : "MISMATCH");
  }

  std::vector<Measurement> measurements;
  measurements.push_back(Pump("loopback", 1, loopback_factory, contexts));
  for (const size_t connections : {size_t{1}, size_t{2}, size_t{4}}) {
    measurements.push_back(Pump("tcp", connections, tcp_factory, contexts));
  }
  for (const Measurement& m : measurements) {
    std::printf("%-9s connections=%zu  qps=%.0f  batch_p50=%.0fus  "
                "batch_p99=%.0fus\n",
                m.transport.c_str(), m.connections, m.qps, m.p50_us,
                m.p99_us);
  }

  WriteJson(equivalent, measurements, hardware);
  for (auto& server : servers) server->Stop();
  std::error_code ec;
  std::filesystem::remove(manifest, ec);
  for (uint32_t s = 0; s < kShards; ++s) {
    std::filesystem::remove(manifest + ".shard" + std::to_string(s), ec);
  }
  if (!equivalent) {
    std::fprintf(stderr,
                 "FAIL: networked serving diverged from in-process\n");
    return 1;
  }
  return 0;
}
