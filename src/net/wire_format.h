#ifndef SQP_NET_WIRE_FORMAT_H_
#define SQP_NET_WIRE_FORMAT_H_

/// The cross-process wire protocol for the recommendation fleet: binary,
/// little-endian, length-prefixed frames carrying one `RecommendMany`
/// sub-batch per request and one `BatchResult` worth of answers per
/// response. The format is pinned by a golden artifact
/// (tests/data/golden_frames_v1.bin) exactly like the snapshot blob and
/// manifest formats — any byte-level change requires a protocol version
/// bump and a new golden.
///
/// Frame layout (all integers little-endian):
///
///   offset size field
///   0      4    magic 'S' 'Q' 'P' 'W'
///   4      2    protocol version (kWireProtocolVersion)
///   6      1    frame type (1 = request, 2 = response)
///   7      1    reserved, must be 0
///   8      4    body size in bytes (bounded by kMaxFrameBodyBytes)
///   12     4    CRC-32 of the body
///   16     ...  body
///
/// Request body:
///   u64 request_id            echoed verbatim in the response
///   u64 deadline_remaining_us remaining budget at send time;
///                             kUnboundedDeadlineMicros = no deadline
///   u64 expected_fleet_version  0 = serve whatever is published
///   u8  lane (QosLane)        u8[3] reserved (0)
///   u32 top_n (>= 1)
///   u32 num_contexts, then per context: u32 len, len x u32 query id
///
/// Response body:
///   u64 request_id            u64 fleet_version (manifest version served)
///   u8  admission status      u8 degraded (0/1)        u16 reserved (0)
///   u32 effective_top_n
///   u32 num_items, then per item:
///     u8 status, u8 covered (0/1), u16 reserved (0)
///     u32 matched_length
///     u32 num_queries, then per query: u32 query id, u64 score bits (f64)
///
/// Decode failures are typed, never UB: corrupt or malformed bytes are
/// kDataLoss; a stream that simply ends is "not ready" and surfaces as the
/// transport's kUnavailable. Decoders are cursor-bounded — a hostile
/// length field can never cause a read past the supplied span.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/prediction_model.h"
#include "log/types.h"
#include "serve/deadline.h"
#include "util/status.h"

namespace sqp::net {

inline constexpr uint8_t kWireMagic[4] = {'S', 'Q', 'P', 'W'};
inline constexpr uint16_t kWireProtocolVersion = 1;
inline constexpr size_t kFramePreludeBytes = 16;
/// Upper bound on a frame body, enforced by every FrameAssembler (server
/// requests, router responses, loopback); a length prefix above this is
/// corruption (or an unreasonable request) and kills the connection.
inline constexpr size_t kMaxFrameBodyBytes = 16u << 20;
inline constexpr uint64_t kUnboundedDeadlineMicros = ~uint64_t{0};

enum class FrameType : uint8_t { kRequest = 1, kResponse = 2 };

struct FrameHeader {
  FrameType type = FrameType::kRequest;
  uint32_t body_size = 0;
  uint32_t body_crc = 0;
};

/// One routed sub-batch: the contexts a single shard owns.
struct WireRequest {
  uint64_t request_id = 0;
  uint64_t deadline_remaining_us = kUnboundedDeadlineMicros;
  uint64_t expected_fleet_version = 0;
  QosLane lane = QosLane::kInteractive;
  uint32_t top_n = 1;
  std::vector<std::vector<QueryId>> contexts;

  bool operator==(const WireRequest&) const = default;
};

/// One item of a response, mirroring ServeResult + Recommendation.
struct WireItem {
  StatusCode status = StatusCode::kOk;
  bool covered = false;
  uint32_t matched_length = 0;
  std::vector<ScoredQuery> queries;

  bool operator==(const WireItem& other) const;
};

/// Mirrors BatchResult for the sub-batch, plus the fleet version served
/// so the router can detect a shard restart onto a newer manifest.
struct WireResponse {
  uint64_t request_id = 0;
  uint64_t fleet_version = 0;
  StatusCode admission = StatusCode::kOk;
  bool degraded = false;
  uint32_t effective_top_n = 0;
  std::vector<WireItem> items;

  bool operator==(const WireResponse&) const = default;
};

/// StatusCode <-> wire byte. The wire values are pinned independently of
/// the C++ enum order (an enum reorder must not silently change the
/// protocol). WireStatusOf is total; StatusFromWire returns false for
/// bytes no release has ever emitted.
uint8_t WireStatusOf(StatusCode code);
bool StatusFromWire(uint8_t wire, StatusCode* out);

/// Serializes a complete frame (prelude + body) into `out` (overwritten).
void EncodeRequestFrame(const WireRequest& request, std::vector<uint8_t>* out);
void EncodeResponseFrame(const WireResponse& response,
                         std::vector<uint8_t>* out);

/// Body decoders. The span is exactly the frame body (prelude already
/// validated and CRC already checked by FrameAssembler). kDataLoss on any
/// malformed field, including trailing bytes.
Status DecodeRequestBody(std::span<const uint8_t> body, WireRequest* out);
Status DecodeResponseBody(std::span<const uint8_t> body, WireResponse* out);

/// Incremental frame reassembly over an arbitrary byte stream. Both sides
/// of the connection use one assembler per peer: feed whatever chunk the
/// transport produced (a single byte is fine), then drain complete frames
/// with Next(). The prelude is validated as soon as its 16 bytes arrive —
/// garbage magic, an unsupported version, an unknown frame type, a
/// nonzero reserved byte or a body length above kMaxFrameBodyBytes poison
/// the stream with a sticky kDataLoss, because after framing is lost no
/// later byte can be trusted.
class FrameAssembler {
 public:
  /// Appends stream bytes. Returns the sticky stream status.
  Status Feed(std::span<const uint8_t> bytes);

  /// Pops the next complete frame into header/body and sets *ready=true;
  /// sets *ready=false when more bytes are needed. kDataLoss if the
  /// stream is poisoned or the body CRC does not match.
  Status Next(FrameHeader* header, std::vector<uint8_t>* body, bool* ready);

  /// Bytes buffered but not yet returned (0 on a frame boundary).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  Status ValidatePrelude(const uint8_t* prelude);

  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool have_header_ = false;
  FrameHeader header_;
  Status error_;
};

}  // namespace sqp::net

#endif  // SQP_NET_WIRE_FORMAT_H_
