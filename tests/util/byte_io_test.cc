// The shared endian-safe byte helpers (util/byte_io.h) back every binary
// format (snapshot blobs and manifests, wire frames, feedback segments):
// little-endian stores and loads must be exact byte-for-byte, and CRC32
// must match the reference implementation.

#include "util/byte_io.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace sqp {
namespace {

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

}  // namespace
}  // namespace sqp
