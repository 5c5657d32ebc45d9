#include "common/crc32.h"

#include <array>

namespace sebdb {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 (reflected IEEE polynomial 0xedb88320). tables[0] is the
// classic bytewise table; tables[k][b] is the CRC of byte b followed by k
// zero bytes, so eight table lookups fold eight input bytes at once.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; k++) {
    for (uint32_t i = 0; i < 256; i++) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

/// Little-endian load; compilers fold it to one unaligned load on x86.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(uint32_t crc, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; len >= 8; len -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; len--, p++) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace sebdb
