#ifndef SQP_TESTS_CORE_BLOB_TEST_UTIL_H_
#define SQP_TESTS_CORE_BLOB_TEST_UTIL_H_

// Helpers for tests that feed hostile but CRC-valid blobs: every bind
// verifies the checksums, so an edit must be re-sealed to reach the
// structural and parameter validators behind them.

#include <cstdint>
#include <vector>

#include "core/blob_format.h"
#include "util/byte_io.h"

namespace sqp {

/// Re-seals `blob` after an edit inside section `id`: that section's CRC,
/// the section-table CRC and the header CRC, so the edit reaches the
/// validators behind every checksum.
inline void ResealSection(std::vector<uint8_t>* blob,
                          serving::BlobSectionId id) {
  uint8_t* const data = blob->data();
  const uint32_t section_count = LoadLE32(data + 12);
  uint8_t* table = data + serving::kBlobHeaderSize;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint8_t* row = table + i * serving::kBlobSectionRowSize;
    if (LoadLE32(row) == id) {
      StoreLE32(row + 4, Crc32(data + LoadLE64(row + 8), LoadLE64(row + 16)));
    }
  }
  StoreLE32(data + 24,
            Crc32(table, section_count * serving::kBlobSectionRowSize));
  StoreLE32(data + 60, Crc32(data, 60));
}

}  // namespace sqp

#endif  // SQP_TESTS_CORE_BLOB_TEST_UTIL_H_
