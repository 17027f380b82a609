#include "net/wire_format.h"

#include <cstring>

#include "util/byte_io.h"

namespace sqp::net {
namespace {

// Fixed body field sizes: the request header (request id, deadline,
// fleet version, lane + 3 reserved, top_n, context count) and a context's
// length word; the response header (request id, fleet version, admission,
// degraded, reserved u16, effective top_n, item count), an item header
// (status, covered, reserved u16, matched length, query count) and one
// scored query (id, score bits).
constexpr size_t kRequestHeaderBytes = 8 + 8 + 8 + 4 + 4 + 4;
constexpr size_t kContextHeaderBytes = 4;
constexpr size_t kResponseHeaderBytes = 8 + 8 + 1 + 1 + 2 + 4 + 4;
constexpr size_t kItemHeaderBytes = 1 + 1 + 2 + 4 + 4;
constexpr size_t kScoredQueryBytes = 4 + 8;

Status Malformed(const char* what) {
  return Status::DataLoss(std::string("malformed frame body: ") + what);
}

/// Writes the 16-byte prelude in front of the body already written at
/// out[16..], then stamps size + CRC.
void FinishFrame(FrameType type, std::vector<uint8_t>* out) {
  uint8_t* p = out->data();
  std::memcpy(p, kWireMagic, sizeof(kWireMagic));
  StoreLE16(p + 4, kWireProtocolVersion);
  p[6] = static_cast<uint8_t>(type);
  p[7] = 0;
  const size_t body_size = out->size() - kFramePreludeBytes;
  StoreLE32(p + 8, static_cast<uint32_t>(body_size));
  StoreLE32(p + 12, Crc32(p + kFramePreludeBytes, body_size));
}

}  // namespace

bool WireItem::operator==(const WireItem& other) const {
  if (status != other.status || covered != other.covered ||
      matched_length != other.matched_length ||
      queries.size() != other.queries.size()) {
    return false;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].query != other.queries[i].query ||
        queries[i].score != other.queries[i].score) {
      return false;
    }
  }
  return true;
}

// The wire protocol persists StatusCode values verbatim as u8 — safe only
// because the C++ enum is pinned to the canonical table in
// include/sqp/status.h, whose values are frozen (golden frames in
// tests/data encode them). Pin every wire value here so a taxonomy edit
// that would silently shift the wire format fails to compile instead.
#define SQP_STATUS_PIN_WIRE_VALUE(name, value, str)                        \
  static_assert(static_cast<uint8_t>(static_cast<StatusCode>(name)) ==     \
                    (value),                                               \
                "wire status code drifted from include/sqp/status.h: " str);
SQP_STATUS_CODE_LIST(SQP_STATUS_PIN_WIRE_VALUE)
#undef SQP_STATUS_PIN_WIRE_VALUE

uint8_t WireStatusOf(StatusCode code) {
  const auto wire = static_cast<uint32_t>(code);
  if (wire >= SQP_STATUS_CODE_COUNT) return SQP_STATUS_INTERNAL;
  return static_cast<uint8_t>(wire);
}

bool StatusFromWire(uint8_t wire, StatusCode* out) {
  if (wire >= SQP_STATUS_CODE_COUNT) return false;
  *out = static_cast<StatusCode>(wire);
  return true;
}

void EncodeRequestFrame(const WireRequest& request,
                        std::vector<uint8_t>* out) {
  size_t body_size = kRequestHeaderBytes;
  for (const auto& context : request.contexts) {
    body_size += kContextHeaderBytes + 4 * context.size();
  }
  out->resize(kFramePreludeBytes + body_size);
  ByteWriter w(out->data() + kFramePreludeBytes);
  w.U64(request.request_id);
  w.U64(request.deadline_remaining_us);
  w.U64(request.expected_fleet_version);
  w.U8(static_cast<uint8_t>(request.lane));
  w.U8(0);
  w.U8(0);
  w.U8(0);
  w.U32(request.top_n);
  w.U32(static_cast<uint32_t>(request.contexts.size()));
  for (const auto& context : request.contexts) {
    w.U32(static_cast<uint32_t>(context.size()));
    for (QueryId id : context) w.U32(id);
  }
  FinishFrame(FrameType::kRequest, out);
}

void EncodeResponseFrame(const WireResponse& response,
                         std::vector<uint8_t>* out) {
  size_t body_size = kResponseHeaderBytes;
  for (const WireItem& item : response.items) {
    body_size += kItemHeaderBytes + kScoredQueryBytes * item.queries.size();
  }
  out->resize(kFramePreludeBytes + body_size);
  ByteWriter w(out->data() + kFramePreludeBytes);
  w.U64(response.request_id);
  w.U64(response.fleet_version);
  w.U8(WireStatusOf(response.admission));
  w.U8(response.degraded ? 1 : 0);
  w.U16(0);
  w.U32(response.effective_top_n);
  w.U32(static_cast<uint32_t>(response.items.size()));
  for (const WireItem& item : response.items) {
    w.U8(WireStatusOf(item.status));
    w.U8(item.covered ? 1 : 0);
    w.U16(0);
    w.U32(item.matched_length);
    w.U32(static_cast<uint32_t>(item.queries.size()));
    for (const ScoredQuery& sq : item.queries) {
      w.U32(sq.query);
      w.F64(sq.score);
    }
  }
  FinishFrame(FrameType::kResponse, out);
}

Status DecodeRequestBody(std::span<const uint8_t> body, WireRequest* out) {
  ByteReader cursor(body.data(), body.size());
  WireRequest request;
  uint8_t lane, r0, r1, r2;
  uint32_t num_contexts;
  if (!cursor.U64(&request.request_id) ||
      !cursor.U64(&request.deadline_remaining_us) ||
      !cursor.U64(&request.expected_fleet_version) || !cursor.U8(&lane) ||
      !cursor.U8(&r0) || !cursor.U8(&r1) || !cursor.U8(&r2) ||
      !cursor.U32(&request.top_n) || !cursor.U32(&num_contexts)) {
    return Malformed("request header truncated");
  }
  if (lane > static_cast<uint8_t>(QosLane::kBulk)) {
    return Malformed("unknown lane");
  }
  if ((r0 | r1 | r2) != 0) return Malformed("nonzero reserved byte");
  if (request.top_n == 0) return Malformed("top_n is zero");
  request.lane = static_cast<QosLane>(lane);
  // Each context costs at least its length word, so this bound makes a
  // hostile count harmless before any reserve.
  if (num_contexts > cursor.remaining() / kContextHeaderBytes) {
    return Malformed("context count exceeds body");
  }
  request.contexts.resize(num_contexts);
  for (auto& context : request.contexts) {
    uint32_t len;
    if (!cursor.U32(&len)) return Malformed("context length truncated");
    if (len > cursor.remaining() / 4) {
      return Malformed("context length exceeds body");
    }
    context.resize(len);
    for (QueryId& id : context) {
      if (!cursor.U32(&id)) return Malformed("context ids truncated");
    }
  }
  if (cursor.remaining() != 0) return Malformed("trailing bytes");
  *out = std::move(request);
  return Status::OK();
}

Status DecodeResponseBody(std::span<const uint8_t> body, WireResponse* out) {
  ByteReader cursor(body.data(), body.size());
  WireResponse response;
  uint8_t admission, degraded;
  uint16_t reserved;
  uint32_t num_items;
  if (!cursor.U64(&response.request_id) ||
      !cursor.U64(&response.fleet_version) || !cursor.U8(&admission) ||
      !cursor.U8(&degraded) || !cursor.U16(&reserved) ||
      !cursor.U32(&response.effective_top_n) || !cursor.U32(&num_items)) {
    return Malformed("response header truncated");
  }
  if (!StatusFromWire(admission, &response.admission)) {
    return Malformed("unknown admission status");
  }
  if (degraded > 1) return Malformed("degraded flag out of range");
  if (reserved != 0) return Malformed("nonzero reserved bytes");
  response.degraded = degraded == 1;
  // Each item costs at least its header.
  if (num_items > cursor.remaining() / kItemHeaderBytes) {
    return Malformed("item count exceeds body");
  }
  response.items.resize(num_items);
  for (WireItem& item : response.items) {
    uint8_t status, covered;
    uint16_t item_reserved;
    uint32_t num_queries;
    if (!cursor.U8(&status) || !cursor.U8(&covered) ||
        !cursor.U16(&item_reserved) || !cursor.U32(&item.matched_length) ||
        !cursor.U32(&num_queries)) {
      return Malformed("item header truncated");
    }
    if (!StatusFromWire(status, &item.status)) {
      return Malformed("unknown item status");
    }
    if (covered > 1) return Malformed("covered flag out of range");
    if (item_reserved != 0) return Malformed("nonzero reserved bytes");
    item.covered = covered == 1;
    if (num_queries > cursor.remaining() / kScoredQueryBytes) {
      return Malformed("query count exceeds body");
    }
    item.queries.resize(num_queries);
    for (ScoredQuery& sq : item.queries) {
      if (!cursor.U32(&sq.query) || !cursor.F64(&sq.score)) {
        return Malformed("scored query truncated");
      }
    }
  }
  if (cursor.remaining() != 0) return Malformed("trailing bytes");
  *out = std::move(response);
  return Status::OK();
}

Status FrameAssembler::ValidatePrelude(const uint8_t* p) {
  if (std::memcmp(p, kWireMagic, sizeof(kWireMagic)) != 0) {
    return Status::DataLoss("bad frame magic");
  }
  const uint16_t version = LoadLE16(p + 4);
  if (version != kWireProtocolVersion) {
    return Status::DataLoss("unsupported wire protocol version " +
                            std::to_string(version));
  }
  const uint8_t type = p[6];
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse)) {
    return Status::DataLoss("unknown frame type");
  }
  if (p[7] != 0) return Status::DataLoss("nonzero reserved prelude byte");
  const uint32_t body_size = LoadLE32(p + 8);
  if (body_size > kMaxFrameBodyBytes) {
    return Status::DataLoss("frame body of " + std::to_string(body_size) +
                            " bytes exceeds limit");
  }
  header_.type = static_cast<FrameType>(type);
  header_.body_size = body_size;
  header_.body_crc = LoadLE32(p + 12);
  return Status::OK();
}

Status FrameAssembler::Feed(std::span<const uint8_t> bytes) {
  if (!error_.ok()) return error_;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  if (!have_header_ && buffer_.size() - consumed_ >= kFramePreludeBytes) {
    error_ = ValidatePrelude(buffer_.data() + consumed_);
    if (!error_.ok()) return error_;
    consumed_ += kFramePreludeBytes;
    have_header_ = true;
  }
  return Status::OK();
}

Status FrameAssembler::Next(FrameHeader* header, std::vector<uint8_t>* body,
                            bool* ready) {
  *ready = false;
  if (!error_.ok()) return error_;
  if (!have_header_ || buffer_.size() - consumed_ < header_.body_size) {
    return Status::OK();
  }
  const uint8_t* begin = buffer_.data() + consumed_;
  if (Crc32(begin, header_.body_size) != header_.body_crc) {
    error_ = Status::DataLoss("frame body CRC mismatch");
    return error_;
  }
  *header = header_;
  body->assign(begin, begin + header_.body_size);
  consumed_ += header_.body_size;
  have_header_ = false;
  // Compact, then eagerly validate the next prelude if it already arrived
  // (keeps Feed/Next order-insensitive for pipelined frames).
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
  consumed_ = 0;
  if (buffer_.size() >= kFramePreludeBytes) {
    error_ = ValidatePrelude(buffer_.data());
    if (error_.ok()) {
      consumed_ = kFramePreludeBytes;
      have_header_ = true;
    }
  }
  *ready = true;
  return Status::OK();
}

}  // namespace sqp::net
