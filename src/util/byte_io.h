#ifndef SQP_UTIL_BYTE_IO_H_
#define SQP_UTIL_BYTE_IO_H_

/// Endian-safe binary primitives shared by every binary format in the
/// repo (compact snapshot blobs and manifests, net/wire_format frames,
/// serve/feedback log segments): multi-byte fields are stored and loaded
/// little-endian regardless of host order, and CRC-32 covers section
/// checksums. Having exactly one set of byte-level helpers keeps the
/// formats from drifting apart. Nothing here allocates or needs the C++
/// runtime, so the slim predictor may link any of it.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

// ---------------------------------------------------------------- cursors

/// Writes consecutive little-endian fields at a raw pointer. The caller
/// sizes the destination for every field first; nothing is checked.
class ByteWriter {
 public:
  explicit ByteWriter(uint8_t* p) : p_(p) {}

  void U8(uint8_t v) { *p_++ = v; }
  void U16(uint16_t v) {
    StoreLE16(p_, v);
    p_ += 2;
  }
  void U32(uint32_t v) {
    StoreLE32(p_, v);
    p_ += 4;
  }
  void U64(uint64_t v) {
    StoreLE64(p_, v);
    p_ += 8;
  }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bytes(const void* data, size_t size) {
    std::memcpy(p_, data, size);
    p_ += size;
  }

 private:
  uint8_t* p_;
};

/// Reads consecutive little-endian fields from [data, data + size). Every
/// getter returns false, and consumes nothing, rather than read past the
/// end; a caller bounds a length field by remaining() before it sizes a
/// container from it.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : p_(data), end_(data + size) {}

  bool U8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *p_++;
    return true;
  }
  bool U16(uint16_t* v) {
    if (remaining() < 2) return false;
    *v = LoadLE16(p_);
    p_ += 2;
    return true;
  }
  bool U32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = LoadLE32(p_);
    p_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = LoadLE64(p_);
    p_ += 8;
    return true;
  }
  bool F64(double* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }
  /// Points `*data` at the next `size` bytes and consumes them.
  bool Bytes(size_t size, const uint8_t** data) {
    if (remaining() < size) return false;
    *data = p_;
    p_ += size;
    return true;
  }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

// ----------------------------------------------------------------- CRC32

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of one buffer.
/// Crc32("123456789") == 0xCBF43926. Computed slicing-by-8 over
/// constant-initialized tables: portable scalar code, no ISA dispatch,
/// no C++ runtime (the slim predictor links it), and bit-for-bit the
/// values of the byte-at-a-time definition, so every stored checksum
/// (blobs, manifests, wire frames, feedback records) is unchanged.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: feed `crc` the previous return value (or 0 for the
/// first chunk). Chained updates equal one Crc32 over the concatenation.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace sqp

#endif  // SQP_UTIL_BYTE_IO_H_
