#include "net/router_client.h"

#include <algorithm>
#include <utility>

#include "log/shard_partitioner.h"

namespace sqp::net {

RouterClient::RouterClient(uint32_t num_shards, TransportFactory factory,
                           RouterOptions options)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      factory_(std::move(factory)),
      options_(options),
      transports_(num_shards_) {}

Result<WireResponse> RouterClient::Exchange(uint32_t shard,
                                            std::span<const uint8_t> frame) {
  Status last = Status::Unavailable("no attempt made");
  const int attempts = std::max(1, options_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (!transports_[shard]) {
      auto fresh = factory_(shard);
      if (!fresh.ok()) {
        last = fresh.status();
        continue;
      }
      transports_[shard] = std::move(*fresh);
    }
    Transport& transport = *transports_[shard];
    Status written = transport.Write(frame);
    if (!written.ok()) {
      transports_[shard].reset();
      ++stats_.reconnects;
      last = written;
      continue;
    }
    FrameAssembler assembler;
    FrameHeader header;
    std::vector<uint8_t> body;
    uint8_t buf[16 * 1024];
    while (true) {
      bool ready = false;
      Status next = assembler.Next(&header, &body, &ready);
      if (!next.ok()) {
        // Corrupt stream: close and surface — no retry can help.
        transports_[shard].reset();
        ++stats_.wire_errors;
        return next;
      }
      if (ready) break;
      auto n = transport.Read(buf, sizeof(buf));
      if (!n.ok()) {
        transports_[shard].reset();
        ++stats_.reconnects;
        last = n.status();
        break;
      }
      Status fed = assembler.Feed({buf, *n});
      if (!fed.ok()) {
        transports_[shard].reset();
        ++stats_.wire_errors;
        return fed;
      }
    }
    if (!transports_[shard]) continue;  // read failed; retry
    if (header.type != FrameType::kResponse) {
      transports_[shard].reset();
      ++stats_.wire_errors;
      return Status::DataLoss("expected a response frame");
    }
    WireResponse response;
    Status decoded = DecodeResponseBody(body, &response);
    if (!decoded.ok()) {
      transports_[shard].reset();
      ++stats_.wire_errors;
      return decoded;
    }
    if (response.fleet_version > observed_fleet_version_) {
      if (observed_fleet_version_ != 0) ++stats_.version_changes;
      observed_fleet_version_ = response.fleet_version;
    }
    return response;
  }
  if (last.code() == StatusCode::kUnavailable) ++stats_.unavailable;
  return last;
}

BatchResult RouterClient::RecommendMany(std::span<const ContextRef> contexts,
                                        size_t top_n,
                                        const ServeOptions& options) {
  const size_t n = contexts.size();
  BatchResult out;
  out.results.resize(n);
  out.statuses.assign(n, StatusCode::kOk);
  out.effective_top_n = top_n;
  ++stats_.batches;
  if (n == 0) return out;

  // Submission-order routing: each shard's sub-batch lists its items in
  // the order they appear in `contexts`, and replies scatter back through
  // the same index lists — positional alignment survives the fan-out.
  std::vector<std::vector<size_t>> by_shard(num_shards_);
  for (size_t i = 0; i < n; ++i) {
    by_shard[ShardOfContext(contexts[i], num_shards_)].push_back(i);
  }

  size_t effective = top_n;
  bool any_ok_subbatch = false;
  Status first_failed_admission;
  std::vector<uint8_t> frame;
  for (uint32_t shard = 0; shard < num_shards_; ++shard) {
    const std::vector<size_t>& indices = by_shard[shard];
    if (indices.empty()) continue;

    WireRequest request;
    request.request_id = next_request_id_++;
    request.expected_fleet_version = options_.expected_fleet_version;
    request.lane = options.lane;
    request.top_n = static_cast<uint32_t>(top_n);
    if (options.deadline.bounded()) {
      // Remaining budget at send time; a deadline already expired ships a
      // zero budget and the shard sheds it on arrival, exactly like the
      // in-process expired-at-admission path.
      const double remaining = options.deadline.RemainingMicros();
      request.deadline_remaining_us =
          remaining <= 0 ? 0 : static_cast<uint64_t>(remaining);
    }
    request.contexts.reserve(indices.size());
    for (size_t i : indices) {
      request.contexts.emplace_back(contexts[i].begin(), contexts[i].end());
    }
    EncodeRequestFrame(request, &frame);
    ++stats_.subrequests;

    auto response = Exchange(shard, frame);
    StatusCode failure = StatusCode::kUnavailable;
    bool failed = false;
    if (!response.ok()) {
      failure = response.status().code();
      failed = true;
    } else if (response->request_id != request.request_id ||
               response->items.size() != indices.size()) {
      ++stats_.wire_errors;
      failure = StatusCode::kDataLoss;
      failed = true;
    }
    if (failed) {
      for (size_t i : indices) out.statuses[i] = failure;
      if (first_failed_admission.ok()) {
        first_failed_admission =
            Status(failure, "shard " + std::to_string(shard) + " sub-batch failed");
      }
      continue;
    }

    WireResponse& reply = *response;
    if (reply.admission == StatusCode::kOk) {
      any_ok_subbatch = true;
      effective = std::min(effective, size_t{reply.effective_top_n});
      out.degraded |= reply.degraded;
    } else if (first_failed_admission.ok()) {
      first_failed_admission =
          Status(reply.admission,
                 "shard " + std::to_string(shard) + " shed the sub-batch");
    }
    for (size_t k = 0; k < indices.size(); ++k) {
      const WireItem& item = reply.items[k];
      const size_t i = indices[k];
      out.statuses[i] = item.status;
      out.results[i].covered = item.covered;
      out.results[i].matched_length = item.matched_length;
      out.results[i].queries = std::move(reply.items[k].queries);
    }
  }

  out.effective_top_n = any_ok_subbatch ? effective : top_n;
  // The batch as a whole was admitted if any shard served its slice;
  // all-shards-failed reports the first failure, like a shed batch.
  if (!any_ok_subbatch && !first_failed_admission.ok()) {
    out.admission = first_failed_admission;
  }
  for (const StatusCode code : out.statuses) {
    if (code == StatusCode::kOk) ++out.served;
  }
  return out;
}

ServeResult RouterClient::Recommend(ContextRef context, size_t top_n,
                                    const ServeOptions& options) {
  const ContextRef refs[1] = {context};
  BatchResult batch = RecommendMany(std::span<const ContextRef>(refs, 1),
                                    top_n, options);
  ServeResult result;
  result.recommendation = std::move(batch.results[0]);
  result.status = batch.statuses[0];
  result.degraded = batch.degraded;
  return result;
}

}  // namespace sqp::net
