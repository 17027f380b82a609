#ifndef SQP_UTIL_BYTE_IO_H_
#define SQP_UTIL_BYTE_IO_H_

/// Endian-safe binary primitives shared by every binary format in the
/// repo (core/snapshot_io compact blobs and manifests, net/wire_format
/// frames, serve/feedback log segments): all multi-byte fields are
/// little-endian on disk regardless of host order, readers are
/// truncation-safe (bool-returning, never UB on short input), and CRC-32
/// covers section checksums. Having exactly one set of byte-level helpers
/// keeps the formats from drifting apart.

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>

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

// --------------------------------------------------------------- streams

/// Little-endian field writer over an ostream. Mirrors ByteReader; check
/// good() once after a batch of writes (ostream failure is sticky).
class ByteWriter {
 public:
  explicit ByteWriter(std::ostream* out) : out_(out) {}

  void Bytes(const void* data, size_t size) {
    out_->write(static_cast<const char*>(data),
                static_cast<std::streamsize>(size));
  }
  void U8(uint8_t v) { Bytes(&v, 1); }
  void U16(uint16_t v) {
    uint8_t b[2];
    StoreLE16(b, v);
    Bytes(b, sizeof(b));
  }
  void U32(uint32_t v) {
    uint8_t b[4];
    StoreLE32(b, v);
    Bytes(b, sizeof(b));
  }
  void U64(uint64_t v) {
    uint8_t b[8];
    StoreLE64(b, v);
    Bytes(b, sizeof(b));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  bool good() const { return out_->good(); }

 private:
  std::ostream* out_;
};

/// Little-endian field reader over an istream. Every method returns false
/// on truncated input and leaves the output untouched — callers turn that
/// into a Status error, never into uninitialized reads.
class ByteReader {
 public:
  explicit ByteReader(std::istream* in) : in_(in) {}

  bool Bytes(void* data, size_t size) {
    return static_cast<bool>(
        in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size)));
  }
  bool U8(uint8_t* v) { return Bytes(v, 1); }
  bool U16(uint16_t* v) {
    uint8_t b[2];
    if (!Bytes(b, sizeof(b))) return false;
    *v = LoadLE16(b);
    return true;
  }
  bool U32(uint32_t* v) {
    uint8_t b[4];
    if (!Bytes(b, sizeof(b))) return false;
    *v = LoadLE32(b);
    return true;
  }
  bool U64(uint64_t* v) {
    uint8_t b[8];
    if (!Bytes(b, sizeof(b))) return false;
    *v = LoadLE64(b);
    return true;
  }
  bool I32(int32_t* v) {
    uint32_t u;
    if (!U32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool F64(double* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }

 private:
  std::istream* in_;
};

// ---------------------------------------------------------- bulk arrays

/// In-place endianness flip of one fixed-width array — the bulk-array hook
/// for big-endian hosts (the disk format is little-endian; on LE hosts the
/// arrays are already in disk order and the call is a no-op at the call
/// sites, which gate on std::endian).
template <typename T>
void ByteSwapInPlace(std::span<T> values) {
  static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                sizeof(T) == 8);
  for (T& value : values) {
    if constexpr (sizeof(T) == 2) {
      auto u = std::bit_cast<uint16_t>(value);
      u = static_cast<uint16_t>((u >> 8) | (u << 8));
      value = std::bit_cast<T>(u);
    } else if constexpr (sizeof(T) == 4) {
      auto u = std::bit_cast<uint32_t>(value);
      uint8_t b[4];
      StoreLE32(b, u);
      u = static_cast<uint32_t>(b[3]) | (static_cast<uint32_t>(b[2]) << 8) |
          (static_cast<uint32_t>(b[1]) << 16) |
          (static_cast<uint32_t>(b[0]) << 24);
      value = std::bit_cast<T>(u);
    } else if constexpr (sizeof(T) == 8) {
      auto u = std::bit_cast<uint64_t>(value);
      uint8_t b[8];
      StoreLE64(b, u);
      uint64_t flipped = 0;
      for (size_t i = 0; i < 8; ++i) {
        flipped = (flipped << 8) | b[i];
      }
      value = std::bit_cast<T>(flipped);
    }
  }
}

/// True iff fixed-width arrays in host memory already have the on-disk
/// (little-endian) byte order and may be written / mapped verbatim.
inline constexpr bool HostIsLittleEndian() {
  return std::endian::native == std::endian::little;
}

}  // namespace sqp

#endif  // SQP_UTIL_BYTE_IO_H_
