// The shared endian-safe byte helpers (util/byte_io.h) back every binary
// format (snapshot blobs and manifests, wire frames, feedback segments):
// little-endian stores and loads must be exact byte-for-byte, and CRC32
// must match a bit-at-a-time reference at every length, start offset
// and chaining split the slicing-by-8 kernel distinguishes.

#include "util/byte_io.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace sqp {
namespace {

/// The definition itself: reflected CRC-32 (polynomial 0xEDB88320), one
/// bit at a time, no tables. Independent of the kernel under test.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

/// 308 bytes of a fixed xorshift stream: enough for length 300 at every
/// start offset 0-7.
std::vector<uint8_t> PseudoRandomBytes() {
  std::vector<uint8_t> bytes(308);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<uint8_t>(x >> 11);
  }
  return bytes;
}

TEST(ByteIoTest, StoreLoadLittleEndianExactBytes) {
  uint8_t buffer[8];
  StoreLE16(buffer, 0x0102);
  EXPECT_EQ(buffer[0], 0x02);
  EXPECT_EQ(buffer[1], 0x01);
  EXPECT_EQ(LoadLE16(buffer), 0x0102);

  StoreLE32(buffer, 0x01020304u);
  EXPECT_EQ(buffer[0], 0x04);
  EXPECT_EQ(buffer[1], 0x03);
  EXPECT_EQ(buffer[2], 0x02);
  EXPECT_EQ(buffer[3], 0x01);
  EXPECT_EQ(LoadLE32(buffer), 0x01020304u);

  StoreLE64(buffer, 0x0102030405060708ull);
  EXPECT_EQ(buffer[0], 0x08);
  EXPECT_EQ(buffer[7], 0x01);
  EXPECT_EQ(LoadLE64(buffer), 0x0102030405060708ull);
}

TEST(ByteIoTest, RoundTripExtremes) {
  uint8_t buffer[8];
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, std::numeric_limits<uint64_t>::max(),
        uint64_t{0x8000000000000000ull}}) {
    StoreLE64(buffer, v);
    EXPECT_EQ(LoadLE64(buffer), v);
  }
  StoreLE16(buffer, 0xffff);
  EXPECT_EQ(LoadLE16(buffer), 0xffff);
  StoreLE32(buffer, 0xffffffffu);
  EXPECT_EQ(LoadLE32(buffer), 0xffffffffu);
}

TEST(ByteIoTest, Crc32MatchesReferenceVector) {
  // The canonical CRC-32 check value (IEEE 802.3, reflected).
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(ByteIoTest, Crc32UpdateChainsLikeOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t one_shot = Crc32(data.data(), data.size());
  for (const size_t split : {size_t{0}, size_t{1}, size_t{10}, data.size()}) {
    uint32_t chained = Crc32(data.data(), split);
    chained = Crc32Update(chained, data.data() + split, data.size() - split);
    EXPECT_EQ(chained, one_shot) << "split at " << split;
  }
}

TEST(ByteIoTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes();
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Crc32Update(0, p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(ByteIoTest, Crc32UpdateChainsAtEverySplitPoint) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes();
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = bytes.data() + offset;
    const size_t len = 300;
    const uint32_t want = ReferenceCrc32(p, len);
    for (size_t split = 0; split <= len; ++split) {
      const uint32_t head = Crc32(p, split);
      ASSERT_EQ(Crc32Update(head, p + split, len - split), want)
          << "offset " << offset << " split " << split;
    }
  }
}

}  // namespace
}  // namespace sqp
