#ifndef SQP_UTIL_BYTE_IO_H_
#define SQP_UTIL_BYTE_IO_H_

/// Endian-safe binary primitives shared by every binary format in the
/// repo (compact snapshot blobs and manifests, net/wire_format frames,
/// serve/feedback log segments): multi-byte fields are stored and loaded
/// little-endian regardless of host order, and CRC-32 covers section
/// checksums. Having exactly one set of byte-level helpers keeps the
/// formats from drifting apart.

#include <cstddef>
#include <cstdint>

namespace sqp {

// ---------------------------------------------------------------- encode

inline void StoreLE16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

inline void StoreLE32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void StoreLE64(uint8_t* p, uint64_t v) {
  StoreLE32(p, static_cast<uint32_t>(v));
  StoreLE32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint16_t LoadLE16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t LoadLE64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLE32(p)) |
         (static_cast<uint64_t>(LoadLE32(p + 4)) << 32);
}

// ----------------------------------------------------------------- CRC32

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of one buffer.
/// Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: feed `crc` the previous return value (or 0 for the
/// first chunk). Chained updates equal one Crc32 over the concatenation.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace sqp

#endif  // SQP_UTIL_BYTE_IO_H_
