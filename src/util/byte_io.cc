#include "util/byte_io.h"

#include <array>

namespace sqp {
namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kCrc32Tables[0] is the classic byte-at-a-time
/// table; kCrc32Tables[k][b] is the CRC contribution of byte b followed
/// by k zero bytes, so eight lookups advance the CRC by eight bytes.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

// Constant-initialized (no __cxa_guard lazy init): this translation unit
// is linked into the runtime-free slim predictor library, which bans
// function-local statics with dynamic initializers.
constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const Crc32Tables& t = kCrc32Tables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLE32(p) ^ c;
    const uint32_t hi = LoadLE32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

}  // namespace sqp
