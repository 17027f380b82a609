// Wire-format contract tests: round-trips through the real encoders and
// the FrameAssembler, the pinned status-byte mapping, hostile length
// fields, and the committed golden frames with the same exhaustive
// byte-flip + every-prefix-truncation discipline that pins the snapshot
// blob and manifest formats (tests/core/snapshot_io_test.cc).

#include "net/wire_format.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/byte_io.h"

namespace sqp::net {
namespace {

WireRequest CanonicalRequest() {
  WireRequest request;
  request.request_id = 7;
  request.deadline_remaining_us = 250000;
  request.expected_fleet_version = 3;
  request.lane = QosLane::kBulk;
  request.top_n = 5;
  request.contexts = {{1, 2, 3}, {42}, {}, {7, 100000}};
  return request;
}

WireResponse CanonicalResponse() {
  WireResponse response;
  response.request_id = 7;
  response.fleet_version = 3;
  response.admission = StatusCode::kOk;
  response.degraded = true;
  response.effective_top_n = 4;
  response.items = {
      {StatusCode::kOk, true, 2, {{2, 0.5}, {9, 0.25}, {11, 0.125}}},
      {StatusCode::kUnavailable, false, 0, {}},
      {StatusCode::kDeadlineExceeded, false, 0, {}},
      {StatusCode::kOk, true, 1, {{100000, 0.0625}}},
  };
  return response;
}

/// Runs `bytes` through the assembler as one stream and decodes the one
/// frame it must contain. Any framing problem, type mismatch, malformed
/// body, incomplete frame or trailing garbage is an error — the predicate
/// the corruption sweeps assert on.
Status DecodeWholeStream(std::span<const uint8_t> bytes, FrameType want,
                         WireRequest* request, WireResponse* response) {
  FrameAssembler assembler;
  SQP_RETURN_IF_ERROR(assembler.Feed(bytes));
  FrameHeader header;
  std::vector<uint8_t> body;
  bool ready = false;
  SQP_RETURN_IF_ERROR(assembler.Next(&header, &body, &ready));
  if (!ready) return Status::DataLoss("incomplete frame");
  if (header.type != want) return Status::DataLoss("unexpected frame type");
  if (want == FrameType::kRequest) {
    SQP_RETURN_IF_ERROR(DecodeRequestBody(body, request));
  } else {
    SQP_RETURN_IF_ERROR(DecodeResponseBody(body, response));
  }
  if (assembler.buffered_bytes() != 0) {
    return Status::DataLoss("trailing bytes after frame");
  }
  return Status::OK();
}

TEST(WireStatusTest, MappingIsPinnedAndTotal) {
  // The wire bytes are a protocol constant — reordering the C++ enum must
  // not change them. Every pair here is part of golden_frames_v1's
  // contract.
  const struct {
    StatusCode code;
    uint8_t wire;
  } kPinned[] = {
      {StatusCode::kOk, 0},
      {StatusCode::kInvalidArgument, 1},
      {StatusCode::kNotFound, 2},
      {StatusCode::kIOError, 3},
      {StatusCode::kFailedPrecondition, 4},
      {StatusCode::kOutOfRange, 5},
      {StatusCode::kInternal, 6},
      {StatusCode::kResourceExhausted, 7},
      {StatusCode::kDeadlineExceeded, 8},
      {StatusCode::kUnavailable, 9},
      {StatusCode::kDataLoss, 10},
  };
  for (const auto& pin : kPinned) {
    EXPECT_EQ(WireStatusOf(pin.code), pin.wire)
        << StatusCodeName(pin.code);
    StatusCode decoded;
    ASSERT_TRUE(StatusFromWire(pin.wire, &decoded)) << int{pin.wire};
    EXPECT_EQ(decoded, pin.code) << int{pin.wire};
  }
  StatusCode unused;
  for (int wire = 11; wire <= 255; ++wire) {
    EXPECT_FALSE(StatusFromWire(static_cast<uint8_t>(wire), &unused))
        << wire;
  }
}

TEST(WireFormatTest, RequestRoundTrips) {
  const WireRequest request = CanonicalRequest();
  std::vector<uint8_t> frame;
  EncodeRequestFrame(request, &frame);
  WireRequest decoded;
  WireResponse unused;
  ASSERT_TRUE(
      DecodeWholeStream(frame, FrameType::kRequest, &decoded, &unused).ok());
  EXPECT_EQ(decoded, request);
}

TEST(WireFormatTest, ResponseRoundTrips) {
  const WireResponse response = CanonicalResponse();
  std::vector<uint8_t> frame;
  EncodeResponseFrame(response, &frame);
  WireRequest unused;
  WireResponse decoded;
  ASSERT_TRUE(
      DecodeWholeStream(frame, FrameType::kResponse, &unused, &decoded).ok());
  EXPECT_EQ(decoded, response);
}

TEST(WireFormatTest, UnboundedAndMinimalRequestRoundTrips) {
  WireRequest request;  // defaults: unbounded deadline, no contexts
  request.request_id = 1;
  std::vector<uint8_t> frame;
  EncodeRequestFrame(request, &frame);
  WireRequest decoded;
  WireResponse unused;
  ASSERT_TRUE(
      DecodeWholeStream(frame, FrameType::kRequest, &decoded, &unused).ok());
  EXPECT_EQ(decoded.deadline_remaining_us, kUnboundedDeadlineMicros);
  EXPECT_EQ(decoded, request);
}

TEST(FrameAssemblerTest, ReassemblesByteAtATimeDelivery) {
  std::vector<uint8_t> frame;
  EncodeRequestFrame(CanonicalRequest(), &frame);
  FrameAssembler assembler;
  for (uint8_t byte : frame) {
    ASSERT_TRUE(assembler.Feed({&byte, 1}).ok());
  }
  FrameHeader header;
  std::vector<uint8_t> body;
  bool ready = false;
  ASSERT_TRUE(assembler.Next(&header, &body, &ready).ok());
  ASSERT_TRUE(ready);
  EXPECT_EQ(header.type, FrameType::kRequest);
  WireRequest decoded;
  ASSERT_TRUE(DecodeRequestBody(body, &decoded).ok());
  EXPECT_EQ(decoded, CanonicalRequest());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, DrainsPipelinedFramesInOrder) {
  std::vector<uint8_t> first, second, stream;
  WireRequest a = CanonicalRequest();
  a.request_id = 100;
  WireRequest b = CanonicalRequest();
  b.request_id = 101;
  EncodeRequestFrame(a, &first);
  EncodeRequestFrame(b, &second);
  stream = first;
  stream.insert(stream.end(), second.begin(), second.end());

  FrameAssembler assembler;
  // Split at an offset that lands mid-prelude of the second frame.
  const size_t split = first.size() + 7;
  ASSERT_TRUE(assembler.Feed({stream.data(), split}).ok());
  ASSERT_TRUE(
      assembler.Feed({stream.data() + split, stream.size() - split}).ok());
  for (uint64_t want : {uint64_t{100}, uint64_t{101}}) {
    FrameHeader header;
    std::vector<uint8_t> body;
    bool ready = false;
    ASSERT_TRUE(assembler.Next(&header, &body, &ready).ok());
    ASSERT_TRUE(ready);
    WireRequest decoded;
    ASSERT_TRUE(DecodeRequestBody(body, &decoded).ok());
    EXPECT_EQ(decoded.request_id, want);
  }
}

TEST(FrameAssemblerTest, RejectsOversizedBodyLength) {
  std::vector<uint8_t> frame;
  EncodeRequestFrame(CanonicalRequest(), &frame);
  // Claim a body just over the frame cap; the prelude alone must poison
  // the stream, before any body byte is buffered — no amount of further
  // bytes may produce a frame.
  FrameAssembler assembler;
  StoreLE32(frame.data() + 8, static_cast<uint32_t>(kMaxFrameBodyBytes + 1));
  Status fed = assembler.Feed(frame);
  EXPECT_EQ(fed.code(), StatusCode::kDataLoss) << fed.ToString();
  FrameHeader header;
  std::vector<uint8_t> body;
  bool ready = false;
  EXPECT_EQ(assembler.Next(&header, &body, &ready).code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(ready);
}

TEST(WireFormatTest, HostileCountsAreRejectedWithoutOverRead) {
  // A request body whose context count claims far more data than the body
  // holds: the decoder must reject by arithmetic, not crash or reserve.
  std::vector<uint8_t> body(36, 0);
  StoreLE64(body.data() + 0, 1);                    // request_id
  StoreLE64(body.data() + 8, kUnboundedDeadlineMicros);
  StoreLE64(body.data() + 16, 0);                   // expected version
  body[24] = 0;                                     // lane (+3 reserved)
  StoreLE32(body.data() + 28, 10);                  // top_n
  StoreLE32(body.data() + 32, 0xFFFFFFFFu);         // num_contexts
  WireRequest decoded;
  EXPECT_EQ(DecodeRequestBody(body, &decoded).code(), StatusCode::kDataLoss);

  // Same for a response whose item's query count lies.
  WireResponse response = CanonicalResponse();
  std::vector<uint8_t> frame;
  EncodeResponseFrame(response, &frame);
  std::vector<uint8_t> resp_body(frame.begin() + kFramePreludeBytes,
                                 frame.end());
  // items start at offset 28 in the response body; the first item's query
  // count lives at +8 within the item.
  StoreLE32(resp_body.data() + 28 + 8, 0x7FFFFFFFu);
  WireResponse decoded_response;
  EXPECT_EQ(DecodeResponseBody(resp_body, &decoded_response).code(),
            StatusCode::kDataLoss);
}

// ------------------------------------------------ format compatibility

/// The committed golden frames: one canonical request frame followed by
/// one canonical response frame, byte for byte. Regenerate with
///   SQP_REGEN_GOLDEN=1 ./sqp_net_tests --gtest_filter='*Golden*'
/// and commit the file together with a kWireProtocolVersion bump whenever
/// the encoding intentionally changes.
constexpr char kGoldenRelPath[] = "/golden_frames_v1.bin";

std::vector<uint8_t> GoldenStream() {
  std::vector<uint8_t> request_frame, response_frame;
  EncodeRequestFrame(CanonicalRequest(), &request_frame);
  EncodeResponseFrame(CanonicalResponse(), &response_frame);
  std::vector<uint8_t> stream = request_frame;
  stream.insert(stream.end(), response_frame.begin(), response_frame.end());
  return stream;
}

std::string GoldenPath() {
  return std::string(SQP_TEST_DATA_DIR) + kGoldenRelPath;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(WireGoldenTest, CommittedFramesMatchCurrentEncoder) {
  const std::vector<uint8_t> stream = GoldenStream();
  if (std::getenv("SQP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(stream.data()),
              static_cast<std::streamsize>(stream.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  ASSERT_TRUE(std::filesystem::exists(GoldenPath()))
      << GoldenPath() << " is missing — regenerate with SQP_REGEN_GOLDEN=1";

  // Byte-for-byte: any encoder change without a version bump fails here.
  const std::vector<uint8_t> committed = ReadAll(GoldenPath());
  ASSERT_EQ(committed.size(), stream.size())
      << "wire encoding changed size — bump kWireProtocolVersion and "
         "regenerate the golden";
  EXPECT_EQ(committed, stream)
      << "wire encoding drifted — bump kWireProtocolVersion and regenerate";

  // And the committed bytes decode to exactly the canonical structs.
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(committed).ok());
  FrameHeader header;
  std::vector<uint8_t> body;
  bool ready = false;
  ASSERT_TRUE(assembler.Next(&header, &body, &ready).ok() && ready);
  ASSERT_EQ(header.type, FrameType::kRequest);
  WireRequest request;
  ASSERT_TRUE(DecodeRequestBody(body, &request).ok());
  EXPECT_EQ(request, CanonicalRequest());
  ASSERT_TRUE(assembler.Next(&header, &body, &ready).ok() && ready);
  ASSERT_EQ(header.type, FrameType::kResponse);
  WireResponse response;
  ASSERT_TRUE(DecodeResponseBody(body, &response).ok());
  EXPECT_EQ(response, CanonicalResponse());
}

/// Splits the committed golden stream back into its two frames.
void GoldenFrames(std::vector<uint8_t>* request_frame,
                  std::vector<uint8_t>* response_frame) {
  const std::vector<uint8_t> stream =
      std::filesystem::exists(GoldenPath()) ? ReadAll(GoldenPath())
                                            : GoldenStream();
  ASSERT_GT(stream.size(), kFramePreludeBytes);
  const size_t request_size =
      kFramePreludeBytes + LoadLE32(stream.data() + 8);
  ASSERT_LT(request_size, stream.size());
  request_frame->assign(stream.begin(),
                        stream.begin() + static_cast<ptrdiff_t>(request_size));
  response_frame->assign(
      stream.begin() + static_cast<ptrdiff_t>(request_size), stream.end());
}

/// Exhaustive single-bit-flip sweep over both golden frames: every bit of
/// every byte, flipped one at a time, must produce a typed rejection —
/// the prelude by validation, the body by CRC. No flip may decode
/// successfully, hang, or over-read (the suite runs under ASan in CI).
TEST(WireGoldenTest, EverySingleBitFlipIsRejected) {
  std::vector<uint8_t> frames[2];
  GoldenFrames(&frames[0], &frames[1]);
  const FrameType types[2] = {FrameType::kRequest, FrameType::kResponse};
  for (int f = 0; f < 2; ++f) {
    size_t rejected = 0;
    for (size_t at = 0; at < frames[f].size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> mutated = frames[f];
        mutated[at] ^= static_cast<uint8_t>(1u << bit);
        WireRequest request;
        WireResponse response;
        const Status status =
            DecodeWholeStream(mutated, types[f], &request, &response);
        EXPECT_FALSE(status.ok())
            << "frame " << f << " byte " << at << " bit " << bit
            << " flip not detected";
        if (!status.ok()) ++rejected;
      }
    }
    EXPECT_EQ(rejected, frames[f].size() * 8);
  }
}

/// Every-prefix-truncation sweep: no proper prefix of either golden frame
/// may yield a complete decoded frame.
TEST(WireGoldenTest, EveryPrefixTruncationIsRejected) {
  std::vector<uint8_t> frames[2];
  GoldenFrames(&frames[0], &frames[1]);
  const FrameType types[2] = {FrameType::kRequest, FrameType::kResponse};
  for (int f = 0; f < 2; ++f) {
    for (size_t len = 0; len < frames[f].size(); ++len) {
      WireRequest request;
      WireResponse response;
      const Status status = DecodeWholeStream(
          {frames[f].data(), len}, types[f], &request, &response);
      EXPECT_FALSE(status.ok())
          << "frame " << f << " truncated to " << len << " bytes decoded";
    }
  }
}

/// Trailing garbage after a complete frame is visible to the stream
/// helper (a lone frame plus noise never silently passes).
TEST(WireGoldenTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> frames[2];
  GoldenFrames(&frames[0], &frames[1]);
  std::vector<uint8_t> noisy = frames[0];
  noisy.push_back(0xAB);
  WireRequest request;
  WireResponse response;
  EXPECT_FALSE(
      DecodeWholeStream(noisy, FrameType::kRequest, &request, &response)
          .ok());
}

}  // namespace
}  // namespace sqp::net
