#include "net/request_handler.h"

#include <chrono>
#include <utility>

namespace sqp::net {

Status ShardRequestHandler::HandleRequest(
    std::span<const uint8_t> body, std::vector<uint8_t>* response_frame) const {
  WireRequest request;
  SQP_RETURN_IF_ERROR(DecodeRequestBody(body, &request));

  WireResponse response;
  response.request_id = request.request_id;
  response.fleet_version = fleet_version_;

  if (request.expected_fleet_version != 0 &&
      request.expected_fleet_version != fleet_version_) {
    // The router pinned a manifest version this shard no longer serves —
    // tell it to re-resolve instead of silently answering off-version.
    response.admission = StatusCode::kFailedPrecondition;
    response.effective_top_n = 0;
    response.items.assign(request.contexts.size(),
                          WireItem{StatusCode::kFailedPrecondition});
  } else {
    // The deadline traveled as a remaining-microsecond budget; it becomes
    // absolute again here, so queue wait on the server burns it exactly
    // like in-process serving.
    ServeOptions options;
    options.lane = request.lane;
    options.feedback = feedback_;
    if (request.deadline_remaining_us != kUnboundedDeadlineMicros) {
      options.deadline = Deadline::After(
          std::chrono::microseconds(request.deadline_remaining_us));
    }
    BatchResult batch =
        engine_->RecommendMany(AsRefs(request.contexts), request.top_n,
                               options);
    response.admission = batch.admission.code();
    response.degraded = batch.degraded;
    response.effective_top_n = static_cast<uint32_t>(batch.effective_top_n);
    response.items.resize(batch.results.size());
    for (size_t i = 0; i < batch.results.size(); ++i) {
      WireItem& item = response.items[i];
      item.status = batch.statuses[i];
      item.covered = batch.results[i].covered;
      item.matched_length =
          static_cast<uint32_t>(batch.results[i].matched_length);
      item.queries = std::move(batch.results[i].queries);
    }
  }

  EncodeResponseFrame(response, response_frame);
  return Status::OK();
}

}  // namespace sqp::net
