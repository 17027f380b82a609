// Interactive query recommender driving the concurrent serving subsystem:
// trains an MVMM snapshot on a synthetic corpus and publishes its compact
// serving blob to the engine (or cold-boots the blobs of a persisted fleet
// manifest), then reads query sessions from stdin and prints top-5
// recommendations after every query — the paper's "online query
// recommendation phase", served the way production would serve it.
//
//   $ ./build/example_recommender_cli                 # interactive
//   $ printf "first query\nsecond query\n" | ./build/example_recommender_cli
//
// Flags:
//   --threads N   worker lanes for batched serving (default 1)
//   --batch N     buffer N contexts and answer them via one RecommendMany
//                 (default 1 = answer each query immediately)
//   --shards N    partition the query-id space across N engine shards
//                 (serve/sharded_engine); answers are bit-identical to
//                 --shards 1, only the serving topology changes
//   --tail        treat stdin as a live log tail: every completed session
//                 (terminated by an empty line) is appended to the streaming
//                 retrainer(s), which rebuild and hot-swap in the
//                 background; unseen queries join the vocabulary live.
//                 With --shards, each session reaches exactly the shards
//                 whose counts it affects and shards rebuild independently
//   --save-snapshot PATH
//                 persist every published rebuild (atomic tmp+rename):
//                 per-shard blobs at PATH.shard<k> — one at the default
//                 --shards 1 — indexed by a SnapshotManifest at PATH,
//                 with the dictionary sidecar at PATH.dict. PATH is
//                 always a manifest, whatever the shard count. With
//                 --tail, PATH.dict is rewritten (atomically) whenever
//                 live queries joined the vocabulary, before the session
//                 that carries them reaches a retrainer: ids only grow,
//                 so the newest sidecar maps every blob persisted so far
//   --load-snapshot PATH
//                 skip training entirely: cold-boot from the manifest
//                 --save-snapshot wrote at PATH (shard count comes from
//                 the manifest; every shard blob is checked against its
//                 manifest pin and section CRCs). A shard blob or any
//                 other file is refused.
//                 Flags the cold boot would ignore (--tail,
//                 --save-snapshot, --shards) are rejected with
//                 an explicit error, never silently dropped — see
//                 serve/cli_config.h for the validation contract.
//   --deadline-us N
//                 per-request latency budget: requests that cannot meet it
//                 are shed with an explicit message instead of blocking
//                 past it (serve/admission_queue). Default 0 = unbounded
//   --lane interactive|bulk
//                 admission priority lane for served requests (default
//                 interactive; bulk batches yield the engine to
//                 interactive traffic under load)
//   --serve-port P
//                 network serving mode (requires --load-snapshot): instead
//                 of answering stdin, expose the cold-booted fleet over
//                 TCP — one ShardServer per manifest shard on ports
//                 P..P+N-1. Runs until stdin reaches EOF. Deadlines and
//                 lanes arrive per-request in the wire frame header
//   --connect HOST:P
//                 network client mode (requires --load-snapshot for the
//                 manifest's shard count + dictionary): the stdin loop is
//                 served by a RouterClient fanning requests across the
//                 fleet started with --serve-port at HOST, ports
//                 P..P+N-1. Answers are bit-identical to serving the same
//                 manifest in-process
//   --feedback-log DIR
//                 closed-loop serving: every served answer is appended to
//                 the bounded crash-safe feedback log in DIR as an
//                 impression (context, served top-N, per-item sampling
//                 propensity); in single-query mode, typing a query that
//                 was on the previous answer's list records a click
//                 against that impression. With --tail, each completed
//                 session consumes the log (ConsumeFeedback): clicked
//                 impressions — not raw stdin sessions — become the
//                 retrainers' training stream, closing the
//                 serve -> log -> retrain -> publish loop in one process.
//                 Works with --serve-port too (the fleet's servers share
//                 the log)
//   --explore POLICY:PARAM
//                 exploration-aware reranking (requires --feedback-log):
//                 epsilon:E, softmax:LAMBDA, bag:B, or none. Perturbs
//                 which item is served at slot 1 (seeded, deterministic
//                 per logged record) so the feedback log covers more than
//                 the greedy arm; propensities land in the log for
//                 unbiased (IPS) evaluation. "none" and epsilon:0 are
//                 bit-identical to not passing --explore at all
//
// An empty line resets the session context. Because the corpus is
// synthetic, useful inputs are queries the trainer has seen; the program
// prints a few popular example queries at startup for copy/paste.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "core/snapshot_io.h"
#include "log/data_reduction.h"
#include "log/session_aggregator.h"
#include "log/session_segmenter.h"
#include "net/router_client.h"
#include "net/shard_server.h"
#include "net/tcp_transport.h"
#include "serve/cli_config.h"
#include "serve/explorer.h"
#include "serve/feedback.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "serve/sharded_engine.h"
#include "synth/log_synthesizer.h"
#include "util/timer.h"

namespace {

using namespace sqp;

void PrintUsage() {
  std::cerr << "usage: recommender_cli [--threads N] [--batch N] "
               "[--shards N] [--tail]\n"
               "                       [--save-snapshot PATH | "
               "--load-snapshot PATH]\n"
               "                       [--deadline-us N] "
               "[--lane interactive|bulk]\n"
               "                       [--serve-port P | --connect HOST:P]\n"
               "                       [--feedback-log DIR "
               "[--explore POLICY:PARAM]]\n"
               "(--load-snapshot cold-boots a read-only replica from the "
               "manifest --save-snapshot wrote and\n"
               " rejects flags it would ignore: --tail, --save-snapshot, "
               "--shards;\n"
               " --serve-port exposes the artifact over TCP, --connect "
               "serves stdin through a\n"
               " router fanning across such a fleet — both require "
               "--load-snapshot)\n";
}

/// Exits with a clear message instead of aborting on a Status failure —
/// a missing .dict sidecar or corrupt blob is an operator error, not a
/// program bug.
void ExitIfError(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::cerr << "error: " << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

/// The manifest --load-snapshot names, for the network modes that need
/// only its shard count (each ShardServer boots its own shard off it).
SnapshotManifest ReadManifestOrExit(const std::string& path) {
  Result<SnapshotManifest> manifest = SnapshotIo::LoadRoutableManifest(path);
  ExitIfError(manifest.status(), "reading the manifest " + path);
  return std::move(manifest.value());
}

/// The `.dict` sidecar --save-snapshot writes next to the manifest.
void LoadDictionaryOrExit(const std::string& manifest_path,
                          QueryDictionary* dictionary) {
  ExitIfError(LoadDictionary(manifest_path + ".dict", dictionary),
              "loading the dictionary sidecar " + manifest_path +
                  ".dict (persisted next to the manifest by "
                  "--save-snapshot)");
}

/// The closed-loop state both serving modes share: the feedback log, the
/// optional explorer, and the hook every served request carries. Null
/// when --feedback-log was not given.
struct ClosedLoop {
  std::unique_ptr<FeedbackLog> log;
  std::unique_ptr<Explorer> explorer;
  FeedbackHook hook;
};

std::unique_ptr<ClosedLoop> OpenClosedLoop(const RecommenderCliConfig& cli) {
  if (cli.feedback_log.empty()) return nullptr;
  auto loop = std::make_unique<ClosedLoop>();
  Result<std::unique_ptr<FeedbackLog>> opened =
      FeedbackLog::Open({.dir = cli.feedback_log});
  ExitIfError(opened.status(),
              "opening the feedback log at " + cli.feedback_log);
  loop->log = std::move(opened.value());
  if (!cli.explore.empty()) {
    const Result<ExplorerOptions> spec = ParseExplorerSpec(cli.explore);
    ExitIfError(spec.status(), "parsing --explore");
    loop->explorer = std::make_unique<Explorer>(*spec);
  }
  loop->hook.log = loop->log.get();
  loop->hook.explorer = loop->explorer.get();
  std::cerr << "feedback log at " << cli.feedback_log
            << (loop->explorer != nullptr && loop->explorer->enabled()
                    ? ", exploring with " + cli.explore
                    : std::string(", greedy serving (no exploration)"))
            << "\n";
  return loop;
}

void PrintFeedbackSummary(const ClosedLoop* loop) {
  if (loop == nullptr) return;
  const FeedbackLogStats stats = loop->log->stats();
  std::cerr << "feedback: " << stats.impressions_appended
            << " impressions, " << stats.clicks_appended
            << " clicks logged (" << stats.dropped_appends << " dropped, "
            << stats.segments_sealed << " segments sealed)\n";
}

/// Prints a query's text, or "#<id>" for an id the dictionary lacks: a
/// sidecar written before a live-interned id reached a persisted blob.
void PrintQuery(const QueryDictionary& dictionary, QueryId id) {
  if (id < dictionary.size()) {
    std::cout << dictionary.Text(id);
  } else {
    std::cout << '#' << id;
  }
}

void PrintRecommendation(const QueryDictionary& dictionary,
                         const std::vector<QueryId>& context,
                         const Recommendation& rec) {
  std::cout << "after \"" << dictionary.Text(context.back()) << "\": ";
  if (!rec.covered) {
    std::cout << "(no recommendation for this context)\n";
    return;
  }
  std::cout << "recommendations (used last " << rec.matched_length
            << " queries):\n";
  for (size_t i = 0; i < rec.queries.size(); ++i) {
    std::cout << "  " << (i + 1) << ". ";
    PrintQuery(dictionary, rec.queries[i].query);
    std::cout << "  [" << rec.queries[i].score << "]\n";
  }
}

/// --serve-port: stand the manifest's fleet up over TCP (one ShardServer
/// per shard, consecutive ports) and block until stdin closes — the
/// process-per-shard topology, runnable as N processes with one shard
/// each or, as here, one process hosting the whole fleet.
int RunServeMode(const RecommenderCliConfig& cli) {
  const SnapshotManifest manifest = ReadManifestOrExit(cli.load_snapshot);
  // One shared closed-loop hook for the whole fleet: every shard server
  // logs into the same directory with fleet-unique record ids.
  const std::unique_ptr<ClosedLoop> loop = OpenClosedLoop(cli);
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  for (uint32_t s = 0; s < manifest.num_shards(); ++s) {
    net::ShardServerOptions options;
    options.host = "0.0.0.0";
    options.port = static_cast<uint16_t>(cli.serve_port + s);
    options.engine.num_threads = cli.threads;
    options.feedback = loop != nullptr ? &loop->hook : nullptr;
    auto server = std::make_unique<net::ShardServer>(options);
    ExitIfError(server->StartFromManifest(cli.load_snapshot, s),
                "starting shard " + std::to_string(s));
    servers.push_back(std::move(server));
  }
  for (const auto& server : servers) {
    std::cerr << "serving shard " << server->shard_index() << "/"
              << server->fleet_num_shards() << " (fleet v"
              << server->fleet_version() << ") on port " << server->port()
              << "\n";
  }
  std::cerr << "fleet is up; EOF on stdin shuts it down\n";
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  for (const auto& server : servers) {
    const net::ShardServerStats stats = server->stats();
    std::cerr << "shard " << server->shard_index() << ": "
              << stats.frames_served << " frames served, "
              << stats.connections_accepted << " connections ("
              << stats.connections_dropped << " dropped)\n";
    server->Stop();
  }
  PrintFeedbackSummary(loop.get());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const Result<RecommenderCliConfig> parsed = ParseRecommenderCliArgs(args);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status().message() << "\n";
    PrintUsage();
    return 2;
  }
  RecommenderCliConfig cli = *parsed;
  if (cli.serve_port != 0) return RunServeMode(cli);

  // Closed-loop state (--feedback-log): null in plain serving; validation
  // already rejected the flags in --connect mode.
  const std::unique_ptr<ClosedLoop> loop = OpenClosedLoop(cli);

  QueryDictionary dictionary;
  // All local serving goes through one ShardedEngine; --shards 1
  // degenerates to the single-engine path (one shard, identical answers).
  // In --connect mode the engine stays null and a RouterClient speaks to
  // the remote fleet instead.
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<net::RouterClient> router;  // --connect mode only
  std::unique_ptr<ShardedRetrainerSet> retrainers;  // training mode only
  std::vector<AggregatedSession> example_sessions;

  // --save-snapshot writes the dictionary sidecar at bootstrap and again
  // whenever live queries grew it. A retrainer may persist a blob holding
  // a live-interned id as soon as it has the session, so callers persist
  // before handing sessions over.
  size_t persisted_dictionary_size = 0;
  const auto persist_dictionary = [&] {
    if (cli.save_snapshot.empty() ||
        dictionary.size() == persisted_dictionary_size) {
      return;
    }
    ExitIfError(SaveDictionary(dictionary, cli.save_snapshot + ".dict"),
                "persisting the dictionary sidecar");
    persisted_dictionary_size = dictionary.size();
  };

  if (!cli.connect_host.empty()) {
    // Network client: the manifest supplies the fleet shape and its
    // sidecar the dictionary; the answers come over TCP from a
    // --serve-port fleet.
    const uint32_t fleet_shards =
        ReadManifestOrExit(cli.load_snapshot).num_shards();
    LoadDictionaryOrExit(cli.load_snapshot, &dictionary);
    std::vector<uint16_t> ports;
    for (uint32_t s = 0; s < fleet_shards; ++s) {
      ports.push_back(static_cast<uint16_t>(cli.connect_port + s));
    }
    router = std::make_unique<net::RouterClient>(
        fleet_shards, net::TcpTransportFactory(cli.connect_host, ports));
    std::cerr << "routing to " << fleet_shards << " shard server(s) at "
              << cli.connect_host << ":" << cli.connect_port << "-"
              << (cli.connect_port + fleet_shards - 1) << " ("
              << dictionary.size() << " dictionary queries)\n";
  } else if (!cli.load_snapshot.empty()) {
    // Cold boot: the model comes straight off the persisted manifest, no
    // synthesis, no training; the fleet is sized by the file.
    WallTimer timer;
    Result<std::unique_ptr<ShardedEngine>> booted =
        ShardedEngine::BootFromManifest(
            cli.load_snapshot,
            ShardedEngineOptions{.num_threads = cli.threads});
    ExitIfError(booted.status(),
                "cold-booting the fleet from " + cli.load_snapshot);
    engine = std::move(booted.value());
    LoadDictionaryOrExit(cli.load_snapshot, &dictionary);
    std::cerr << "cold-booted " << engine->num_shards() << " shard(s) at v"
              << std::ranges::max(engine->shard_versions()) << " from " << cli.load_snapshot
              << " in " << timer.ElapsedMillis() << " ms ("
              << dictionary.size() << " dictionary queries)\n";
  } else {
    std::cerr << "training MVMM on a synthetic corpus..." << std::flush;
    Vocabulary vocabulary(
        VocabularyConfig{.num_terms = 1500, .synonym_fraction = 0.3}, 21);
    TopicModel topics(&vocabulary, TopicModelConfig{}, 22);
    SynthesizerConfig config;
    config.num_sessions = 30000;
    config.num_machines = 1000;
    LogSynthesizer synthesizer(&topics, config);
    const SynthCorpus corpus = synthesizer.Synthesize(23, nullptr);

    SessionSegmenter segmenter;
    std::vector<Session> segmented;
    SQP_CHECK_OK(segmenter.Segment(corpus.records, &dictionary, &segmented));
    SessionAggregator aggregator;
    aggregator.Add(segmented);
    ReductionOptions reduction;
    reduction.min_frequency_exclusive = 1;
    std::vector<AggregatedSession> sessions =
        ReduceSessions(aggregator.Finish(), reduction, nullptr);
    example_sessions.assign(sessions.begin(),
                            sessions.begin() +
                                std::min<size_t>(5, sessions.size()));

    // The serving stack: sharded engine + per-shard streaming retrainers
    // owning the partitioned corpus.
    engine = std::make_unique<ShardedEngine>(ShardedEngineOptions{
        .num_shards = cli.shards, .num_threads = cli.threads});
    RetrainerOptions retrain_options;
    retrain_options.model.default_max_depth = 5;
    retrain_options.vocabulary_size = 0;  // grow with live-interned queries
    retrain_options.poll_interval = std::chrono::milliseconds(50);
    retrain_options.persist_path = cli.save_snapshot;
    retrainers = std::make_unique<ShardedRetrainerSet>(engine.get(),
                                                       retrain_options);
    // With --save-snapshot, Bootstrap also persists every shard blob and
    // the manifest indexing them; each later background rebuild re-pins
    // the manifest automatically, so the on-disk fleet stays bootable.
    ExitIfError(retrainers->Bootstrap(std::move(sessions)), "training");
    if (!cli.save_snapshot.empty()) {
      // The dictionary rides along so a cold-booting replica can map ids
      // back to query strings.
      persist_dictionary();
      std::cerr << " wrote manifest + " << engine->num_shards()
                << " shard blob(s) to " << cli.save_snapshot
                << " (+ .dict);" << std::flush;
    }
    if (cli.tail) retrainers->StartAll();

    size_t corpus_size = 0;
    for (size_t s = 0; s < retrainers->num_shards(); ++s) {
      corpus_size += retrainers->shard_retrainer(s)->corpus_size();
    }
    std::cerr << " done (" << corpus_size
              << " sessions across shard corpora, " << dictionary.size()
              << " unique queries)\n";
  }

  if (router != nullptr) {
    std::cerr << "serving over TCP through " << router->num_shards()
              << " shard connection(s), batch " << cli.batch << "\n";
  } else {
    std::cerr << "serving with " << engine->num_shards() << " shard(s), "
              << engine->num_threads() << " lane(s), batch " << cli.batch
              << (!cli.load_snapshot.empty() ? ", mmap-booted snapshot(s)"
                                             : "")
              << (cli.tail ? ", live retraining on session tails" : "")
              << "\n";
  }
  if (!example_sessions.empty()) {
    std::cerr << "example queries you can try:\n";
    for (const AggregatedSession& session : example_sessions) {
      std::cerr << "  " << dictionary.Text(session.queries[0]) << "\n";
    }
  }
  std::cerr << "enter queries (empty line = new session, EOF = quit):\n";

  std::vector<QueryId> context;
  // Batch mode buffers whole contexts (engine spans borrow their storage).
  std::vector<std::vector<QueryId>> buffered;

  // Click attribution (single-query mode only): the previous answer's
  // impression id and served ids. Typing a query that was on that list is
  // a click on its slot.
  uint64_t last_impression = 0;
  std::vector<QueryId> last_served;

  // The serving seam: identical loop whether answers come from the
  // in-process fleet or over the wire (they are bit-identical anyway —
  // that is the network tier's contract).
  const auto serve_batch = [&](std::span<const ContextRef> refs,
                               const ServeOptions& options) {
    return router != nullptr ? router->RecommendMany(refs, 5, options)
                             : engine->RecommendMany(refs, 5, options);
  };
  const auto serve_single = [&](ContextRef ref, const ServeOptions& options) {
    return router != nullptr ? router->Recommend(ref, 5, options)
                             : engine->Recommend(ref, 5, options);
  };
  const auto live_version = [&] {
    return router != nullptr ? router->observed_fleet_version()
                             : std::ranges::max(engine->shard_versions());
  };
  uint64_t seen_version = live_version();

  // Every request carries the CLI's QoS choice: a fresh deadline per call
  // (Deadline::After burns from the moment of the call, queue wait
  // included) and the chosen lane. deadline_us = 0 keeps the deadline
  // unbounded.
  const auto serve_options = [&] {
    ServeOptions options;
    if (cli.deadline_us > 0) {
      options.deadline =
          Deadline::After(std::chrono::microseconds(cli.deadline_us));
    }
    options.lane = cli.lane;
    options.feedback = loop != nullptr ? &loop->hook : nullptr;
    return options;
  };
  const auto print_shed = [](StatusCode code) {
    switch (code) {
      case StatusCode::kUnavailable:
        std::cout << "(shard unavailable: no published snapshot or "
                     "unreachable server)\n";
        break;
      case StatusCode::kDataLoss:
        std::cout << "(wire corruption: response discarded)\n";
        break;
      default:
        std::cout << "(request shed: deadline exceeded)\n";
        break;
    }
  };

  const auto flush_batch = [&] {
    if (buffered.empty()) return;
    std::vector<ContextRef> refs;
    refs.reserve(buffered.size());
    for (const std::vector<QueryId>& c : buffered) {
      refs.emplace_back(c.data(), c.size());
    }
    const BatchResult batch =
        serve_batch(std::span<const ContextRef>(refs), serve_options());
    for (size_t i = 0; i < batch.results.size(); ++i) {
      if (batch.statuses[i] == StatusCode::kOk) {
        PrintRecommendation(dictionary, buffered[i], batch.results[i]);
      } else {
        std::cout << "after \"" << dictionary.Text(buffered[i].back())
                  << "\": ";
        print_shed(batch.statuses[i]);
      }
    }
    buffered.clear();
  };
  const auto report_version = [&] {
    const uint64_t now_live = live_version();
    if (now_live != seen_version) {
      std::cout << "-- model v" << now_live << " is live";
      if (engine != nullptr && engine->num_shards() > 1) {
        std::cout << " (oldest shard v"
                  << std::ranges::min(engine->shard_versions()) << ")";
      }
      std::cout << " --\n";
      seen_version = now_live;
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    report_version();
    const std::string normalized = QueryDictionary::Normalize(line);
    if (normalized.empty()) {
      flush_batch();
      if (cli.tail && retrainers != nullptr) {
        persist_dictionary();
        if (loop != nullptr) {
          // Closed loop: the training stream is the feedback log, not raw
          // stdin — clicked impressions (with their contexts) become the
          // appended sessions, and the watermark makes re-consumes no-ops.
          const Result<size_t> consumed =
              retrainers->ConsumeFeedback(cli.feedback_log);
          if (!consumed.ok()) {
            std::cerr << "feedback consume failed: "
                      << consumed.status().ToString() << "\n";
          } else if (*consumed > 0) {
            std::cout << "-- " << *consumed
                      << " clicked impression(s) entered the retrain "
                         "stream --\n";
          }
        } else if (context.size() >= 2) {
          // One completed session enters the stream; the background
          // retrainers of the owning shards fold it into their next
          // snapshots.
          retrainers->AppendSessions({AggregatedSession{context, 1}});
        }
      }
      context.clear();
      last_impression = 0;
      last_served.clear();
      std::cout << "-- new session --\n";
      continue;
    }
    std::optional<QueryId> id = dictionary.Lookup(normalized);
    if (!id.has_value()) {
      if (cli.tail) {
        id = dictionary.Intern(normalized);  // joins the vocabulary live
      } else {
        std::cout << "(query \"" << normalized
                  << "\" is outside the trained vocabulary; session "
                     "continues)\n";
        continue;
      }
    }
    if (loop != nullptr && last_impression != 0) {
      // The user typed their next query: if it was on the previous
      // answer's list, that is a click on its slot.
      for (size_t pos = 0; pos < last_served.size(); ++pos) {
        if (last_served[pos] == *id) {
          (void)loop->log->RecordClick(last_impression,
                                       static_cast<uint32_t>(pos));
          std::cout << "(click on slot " << (pos + 1) << " recorded)\n";
          break;
        }
      }
      last_impression = 0;
      last_served.clear();
    }
    context.push_back(*id);
    if (cli.batch > 1) {
      buffered.push_back(context);
      if (buffered.size() >= cli.batch) flush_batch();
      continue;
    }
    const ServeResult served =
        serve_single(ContextRef(context.data(), context.size()),
                     serve_options());
    if (served.status == StatusCode::kOk) {
      PrintRecommendation(dictionary, context, served.recommendation);
      if (loop != nullptr && served.feedback_record_id != 0) {
        last_impression = served.feedback_record_id;
        last_served.clear();
        for (const ScoredQuery& sq : served.recommendation.queries) {
          last_served.push_back(sq.query);
        }
      }
    } else {
      std::cout << "after \"" << dictionary.Text(context.back()) << "\": ";
      print_shed(served.status);
    }
  }
  flush_batch();
  if (cli.tail && retrainers != nullptr) {
    persist_dictionary();
    if (loop != nullptr) {
      const Result<size_t> consumed =
          retrainers->ConsumeFeedback(cli.feedback_log);
      if (!consumed.ok()) {
        std::cerr << "feedback consume failed: "
                  << consumed.status().ToString() << "\n";
      }
    } else if (context.size() >= 2) {
      retrainers->AppendSessions({AggregatedSession{context, 1}});
    }
    retrainers->StopAll();
  }
  PrintFeedbackSummary(loop.get());
  return 0;
}
